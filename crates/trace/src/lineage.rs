//! Lineage ids: the `(source, seq)` identity of one distinct sensed event.
//!
//! A lineage id is born on an `event_gen` line, rides every payload that
//! carries the event (`tx`/`enq` lines), is listed on every `agg_merge`
//! that absorbs it, and dies on a `deliver` or `item_drop` line — so an
//! event's full source→sink story is reconstructible from a trace by
//! filtering on its id.
//!
//! On the wire a lineage id is the string `src#seq` (e.g. `"3#12"`), and a
//! *set* of ids is one comma-joined string (e.g. `"3#12,5#12"`). The set
//! encoding is flat — no JSON arrays — so [`crate::TraceRecord::from_json`]
//! decodes lineage-carrying lines like any other.

use std::fmt::{self, Write as _};
use std::str::FromStr;

/// The identity of one distinct sensed event: source node + source-local
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineageId {
    /// The node that sensed the event.
    pub src: u32,
    /// The source-local event sequence number.
    pub seq: u32,
}

impl LineageId {
    /// A new lineage id.
    pub fn new(src: u32, seq: u32) -> Self {
        LineageId { src, seq }
    }
}

impl fmt::Display for LineageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.src, self.seq)
    }
}

impl FromStr for LineageId {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        let (src, seq) = s.split_once('#').ok_or(())?;
        Ok(LineageId {
            src: src.parse().map_err(|_| ())?,
            seq: seq.parse().map_err(|_| ())?,
        })
    }
}

/// Joins lineage ids into the flat comma-separated wire string, writing
/// each id in place (no per-id allocation).
pub fn join_lineage(ids: impl IntoIterator<Item = LineageId>) -> String {
    let mut out = String::new();
    for id in ids {
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "{id}");
    }
    out
}

/// Splits a wire string back into lineage ids. Malformed entries are
/// dropped silently.
pub fn split_lineage(s: &str) -> Vec<LineageId> {
    s.split(',')
        .filter(|part| !part.is_empty())
        .filter_map(|part| part.parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let id = LineageId::new(3, 12);
        assert_eq!(id.to_string(), "3#12");
        assert_eq!("3#12".parse(), Ok(id));
        assert!("3".parse::<LineageId>().is_err());
        assert!("a#b".parse::<LineageId>().is_err());
    }

    #[test]
    fn join_and_split_roundtrip() {
        let ids = vec![LineageId::new(0, 1), LineageId::new(7, 42)];
        let wire = join_lineage(ids.clone());
        assert_eq!(wire, "0#1,7#42");
        assert_eq!(split_lineage(&wire), ids);
        assert_eq!(join_lineage([]), "");
        assert_eq!(split_lineage(""), vec![]);
    }

    #[test]
    fn split_drops_malformed_entries() {
        assert_eq!(
            split_lineage("1#2,bogus,3#4"),
            vec![LineageId::new(1, 2), LineageId::new(3, 4)]
        );
    }
}
