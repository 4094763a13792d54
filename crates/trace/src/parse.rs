//! The dependency-free scanner behind [`crate::TraceRecord::from_json`].
//!
//! This is deliberately *not* a general JSON parser: trace records are flat
//! objects whose values are unescaped strings or plain numbers (see
//! [`crate::record`]), so a single left-to-right scan suffices. Lines that
//! do not fit that shape scan to `None`, which the decoder reports as a
//! foreign line.

/// One scanned flat-JSON line: field names and raw value text, borrowed
/// from the line, in line order.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct ParsedLine<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> ParsedLine<'a> {
    /// The record tag (`ev` field), if present.
    pub(crate) fn tag(&self) -> Option<&'a str> {
        self.str_field("ev")
    }

    /// A field's raw value text (a string value without its quotes).
    pub(crate) fn str_field(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

/// Scans one flat NDJSON object line. Returns `None` when the line is not
/// a flat object of string/number fields.
pub(crate) fn parse_line(line: &str) -> Option<ParsedLine<'_>> {
    let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        // Key: a quoted name followed by ':'.
        rest = rest.strip_prefix('"')?;
        let key_end = rest.find('"')?;
        let key = &rest[..key_end];
        rest = rest[key_end + 1..].strip_prefix(':')?;
        // Value: a quoted string (no escapes in our records) or a bare token
        // running to the next comma.
        let value;
        if let Some(after_quote) = rest.strip_prefix('"') {
            let val_end = after_quote.find('"')?;
            value = &after_quote[..val_end];
            rest = &after_quote[val_end + 1..];
        } else {
            let val_end = rest.find(',').unwrap_or(rest.len());
            value = &rest[..val_end];
            if value.is_empty() || value.contains(['{', '[', '"']) {
                return None; // nested or malformed value
            }
            rest = &rest[val_end..];
        }
        fields.push((key, value));
        if let Some(after_comma) = rest.strip_prefix(',') {
            rest = after_comma;
        } else if !rest.is_empty() {
            return None; // garbage between fields
        }
    }
    Some(ParsedLine { fields })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceRecord;

    #[test]
    fn roundtrips_every_record_shape() {
        let recs = [
            TraceRecord::RunStart { seed: 42, nodes: 9 },
            TraceRecord::PacketTx {
                t_ns: 5,
                node: 1,
                tx: 3,
                kind: "ack",
                bytes: 14,
                dst: Some(3),
                lineage: None,
            },
            TraceRecord::EnergyDebit {
                t_ns: 6,
                node: 2,
                state: "rx",
                joules: 0.125,
            },
            TraceRecord::RunEnd {
                t_ns: 7,
                events: 1000,
                total_energy_j: 12.5,
            },
        ];
        for r in &recs {
            let line = r.to_json();
            let p = parse_line(&line).unwrap_or_else(|| panic!("unparsable: {line}"));
            assert_eq!(p.tag(), Some(r.tag()), "{line}");
        }
    }

    #[test]
    fn lineage_sets_survive_the_quoted_value_scan() {
        let line = TraceRecord::AggMerge {
            t_ns: 9,
            node: 4,
            inputs: 2,
            items: 3,
            cost: 1.5,
            lineage: "0#1,2#1,2#2".into(),
        }
        .to_json();
        let p = parse_line(&line).unwrap();
        assert_eq!(p.str_field("lineage"), Some("0#1,2#1,2#2"));
        assert_eq!(p.str_field("cost"), Some("1.5"));
    }

    #[test]
    fn extracts_typed_fields() {
        let line = "{\"ev\":\"energy\",\"t_ns\":10,\"node\":3,\"state\":\"tx\",\"joules\":0.5}";
        let p = parse_line(line).unwrap();
        assert_eq!(p.tag(), Some("energy"));
        assert_eq!(p.str_field("t_ns"), Some("10"));
        assert_eq!(p.str_field("node"), Some("3"));
        assert_eq!(p.str_field("state"), Some("tx"));
        assert_eq!(p.str_field("joules"), Some("0.5"));
        assert_eq!(p.str_field("missing"), None);
        // The decoder types the raw values.
        assert_eq!(
            TraceRecord::from_json(line),
            Ok(TraceRecord::EnergyDebit {
                t_ns: 10,
                node: 3,
                state: "tx",
                joules: 0.5
            })
        );
    }

    #[test]
    fn rejects_non_flat_lines() {
        assert_eq!(parse_line("not json"), None);
        assert_eq!(parse_line("{\"a\":{\"b\":1}}"), None);
        assert_eq!(parse_line("{\"a\":[1,2]}"), None);
        assert_eq!(parse_line("{\"a\":1 \"b\":2}"), None);
    }

    #[test]
    fn empty_object_parses_empty() {
        let p = parse_line("{}").unwrap();
        assert_eq!(p.tag(), None);
    }
}
