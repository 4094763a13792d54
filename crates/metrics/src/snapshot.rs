//! Snapshot-delta JSONL codec for the metrics registry.
//!
//! Three line shapes, all single-line JSON objects:
//!
//! * `{"ev":"mreg","v":1,"metrics":[{"n":"phy.frames_rx","k":"c"},...]}` —
//!   written once per stream; positions in `metrics` follow registration
//!   order, and indices in later lines are **per-type** (the id handed out
//!   at registration), so the stream is self-describing.
//! * `{"ev":"mdelta","t_ns":T,"c":[[i,d],...],"g":[[i,v],...],"h":[[i,b,d],...]}`
//!   — a sparse delta since the previous snapshot: counters that moved
//!   (index, increment), gauges that changed (index, absolute level), and
//!   histogram buckets that filled (index, bucket, increment).
//! * `{"ev":"mtotal","t_ns":T,"c":...,"g":...,"h":...,"hs":[[i,count,sum],...]}`
//!   — absolute end-of-run totals: every counter and gauge, non-empty
//!   histogram buckets, and per-histogram count/sum.
//!
//! Encoding appends to a caller-provided `String` (cleared capacity is
//! reused run-to-run: no allocation in steady state) and iterates slots in
//! index order, so identical runs produce byte-identical streams.

use std::fmt::Write as _;

use crate::hist::HIST_BUCKETS;
use crate::registry::{MetricType, MetricsRegistry};

/// Wire format version emitted in the `mreg` header.
pub const METRICS_WIRE_VERSION: u32 = 1;

/// Delta encoder: remembers the registry state at the previous snapshot.
#[derive(Debug)]
pub struct SnapshotEncoder {
    prev_counters: Vec<u64>,
    prev_gauges: Vec<u64>,
    prev_hists: Vec<[u64; HIST_BUCKETS]>,
}

impl SnapshotEncoder {
    /// A zero baseline sized to `reg` (the first delta reports everything
    /// recorded since construction).
    pub fn new(reg: &MetricsRegistry) -> Self {
        Self {
            prev_counters: vec![0; reg.counters().len()],
            prev_gauges: vec![0; reg.gauges().len()],
            prev_hists: vec![[0; HIST_BUCKETS]; reg.hists().len()],
        }
    }

    /// Appends the `mreg` header line (with trailing newline) to `out`.
    pub fn write_header(reg: &MetricsRegistry, out: &mut String) {
        out.push_str("{\"ev\":\"mreg\",\"v\":");
        let _ = write!(out, "{METRICS_WIRE_VERSION}");
        out.push_str(",\"metrics\":[");
        for (i, d) in reg.descs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"n\":\"");
            escape_into(&d.name, out);
            out.push_str("\",\"k\":\"");
            out.push_str(d.kind.tag());
            out.push_str("\"}");
        }
        out.push_str("]}\n");
    }

    /// Appends one `mdelta` line for everything that moved since the last
    /// call, then advances the baseline. Always writes a line (an empty
    /// delta keeps the cadence visible in the stream).
    pub fn encode_delta(&mut self, reg: &MetricsRegistry, t_ns: u64, out: &mut String) {
        out.push_str("{\"ev\":\"mdelta\",\"t_ns\":");
        let _ = write!(out, "{t_ns}");
        out.push_str(",\"c\":[");
        let mut first = true;
        for (i, (&now, prev)) in reg
            .counters()
            .iter()
            .zip(self.prev_counters.iter_mut())
            .enumerate()
        {
            if now != *prev {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{i},{}]", now - *prev);
                *prev = now;
            }
        }
        out.push_str("],\"g\":[");
        let mut first = true;
        for (i, (&now, prev)) in reg
            .gauges()
            .iter()
            .zip(self.prev_gauges.iter_mut())
            .enumerate()
        {
            if now != *prev {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "[{i},{now}]");
                *prev = now;
            }
        }
        out.push_str("],\"h\":[");
        let mut first = true;
        for (i, (h, prev)) in reg
            .hists()
            .iter()
            .zip(self.prev_hists.iter_mut())
            .enumerate()
        {
            for (b, (&now, p)) in h.buckets().iter().zip(prev.iter_mut()).enumerate() {
                if now != *p {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{i},{b},{}]", now - *p);
                    *p = now;
                }
            }
        }
        out.push_str("]}\n");
    }

    /// Appends the absolute `mtotal` line for the end of a run.
    pub fn write_totals(reg: &MetricsRegistry, t_ns: u64, out: &mut String) {
        out.push_str("{\"ev\":\"mtotal\",\"t_ns\":");
        let _ = write!(out, "{t_ns}");
        out.push_str(",\"c\":[");
        for (i, &v) in reg.counters().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{i},{v}]");
        }
        out.push_str("],\"g\":[");
        for (i, &v) in reg.gauges().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{i},{v}]");
        }
        out.push_str("],\"h\":[");
        let mut first = true;
        for (i, h) in reg.hists().iter().enumerate() {
            for (b, &n) in h.buckets().iter().enumerate() {
                if n != 0 {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let _ = write!(out, "[{i},{b},{n}]");
                }
            }
        }
        out.push_str("],\"hs\":[");
        for (i, h) in reg.hists().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{i},{},{}]", h.count(), h.sum());
        }
        out.push_str("]}\n");
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// --- parsing ------------------------------------------------------------

/// One parsed metrics JSONL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsLine {
    /// The `mreg` stream header.
    Header {
        /// Wire format version.
        version: u32,
        /// `(full name, type)` in registration order.
        metrics: Vec<(String, MetricType)>,
    },
    /// A sparse `mdelta` snapshot.
    Delta {
        /// Snapshot time, nanoseconds of simulated time.
        t_ns: u64,
        /// `(counter index, increment)`.
        counters: Vec<(u32, u64)>,
        /// `(gauge index, absolute level)`.
        gauges: Vec<(u32, u64)>,
        /// `(histogram index, bucket, increment)`.
        hist: Vec<(u32, u32, u64)>,
    },
    /// The absolute `mtotal` end-of-run line.
    Total {
        /// Run-end time, nanoseconds of simulated time.
        t_ns: u64,
        /// `(counter index, total)`, every counter.
        counters: Vec<(u32, u64)>,
        /// `(gauge index, final level)`, every gauge.
        gauges: Vec<(u32, u64)>,
        /// `(histogram index, bucket, count)`, non-empty buckets only.
        hist: Vec<(u32, u32, u64)>,
        /// `(histogram index, count, sum)`, every histogram.
        hist_stats: Vec<(u32, u64, u64)>,
    },
}

impl MetricsLine {
    /// Parses one line of the metrics JSONL stream.
    pub fn parse(line: &str) -> Result<MetricsLine, String> {
        let mut p = Parser::new(line.trim());
        p.lit("{\"ev\":\"")?;
        let ev = p.take_until('"')?;
        match ev {
            "mreg" => {
                p.lit("\",\"v\":")?;
                let version = p.u64()? as u32;
                p.lit(",\"metrics\":[")?;
                let mut metrics = Vec::new();
                if !p.eat(']') {
                    loop {
                        p.lit("{\"n\":\"")?;
                        let name = p.string()?;
                        p.lit(",\"k\":\"")?;
                        let tag = p.take_until('"')?;
                        let kind = MetricType::from_tag(tag)
                            .ok_or_else(|| format!("unknown metric type tag {tag:?}"))?;
                        p.lit("\"}")?;
                        metrics.push((name, kind));
                        if !p.eat(',') {
                            break;
                        }
                    }
                    p.lit("]")?;
                }
                p.lit("}")?;
                Ok(MetricsLine::Header { version, metrics })
            }
            "mdelta" => {
                p.lit("\",\"t_ns\":")?;
                let t_ns = p.u64()?;
                p.lit(",\"c\":")?;
                let counters = p.pairs()?;
                p.lit(",\"g\":")?;
                let gauges = p.pairs()?;
                p.lit(",\"h\":")?;
                let hist = p.triples()?;
                p.lit("}")?;
                Ok(MetricsLine::Delta {
                    t_ns,
                    counters,
                    gauges,
                    hist,
                })
            }
            "mtotal" => {
                p.lit("\",\"t_ns\":")?;
                let t_ns = p.u64()?;
                p.lit(",\"c\":")?;
                let counters = p.pairs()?;
                p.lit(",\"g\":")?;
                let gauges = p.pairs()?;
                p.lit(",\"h\":")?;
                let hist = p.triples()?;
                p.lit(",\"hs\":")?;
                let hist_stats = p.triples_wide()?;
                p.lit("}")?;
                Ok(MetricsLine::Total {
                    t_ns,
                    counters,
                    gauges,
                    hist,
                    hist_stats,
                })
            }
            other => Err(format!("unknown metrics line tag {other:?}")),
        }
    }
}

/// Minimal scanner for the fixed grammar above.
struct Parser<'a> {
    rest: &'a str,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self { rest: s }
    }

    fn lit(&mut self, lit: &str) -> Result<(), String> {
        match self.rest.strip_prefix(lit) {
            Some(r) => {
                self.rest = r;
                Ok(())
            }
            None => Err(format!("expected {lit:?} at {:?}", truncate(self.rest))),
        }
    }

    fn eat(&mut self, c: char) -> bool {
        match self.rest.strip_prefix(c) {
            Some(r) => {
                self.rest = r;
                true
            }
            None => false,
        }
    }

    fn take_until(&mut self, stop: char) -> Result<&'a str, String> {
        let ix = self
            .rest
            .find(stop)
            .ok_or_else(|| format!("missing {stop:?} in {:?}", truncate(self.rest)))?;
        let (head, tail) = self.rest.split_at(ix);
        self.rest = tail;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(self.rest.len());
        if end == 0 {
            return Err(format!("expected a number at {:?}", truncate(self.rest)));
        }
        let (digits, tail) = self.rest.split_at(end);
        self.rest = tail;
        digits.parse().map_err(|e| format!("bad number: {e}"))
    }

    /// A JSON string body up to its closing quote (consumed), unescaping.
    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        let mut chars = self.rest.char_indices();
        loop {
            let (ix, c) = chars
                .next()
                .ok_or_else(|| "unterminated string".to_string())?;
            match c {
                '"' => {
                    self.rest = &self.rest[ix + 1..];
                    return Ok(out);
                }
                '\\' => {
                    let (_, esc) = chars.next().ok_or_else(|| "dangling escape".to_string())?;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let (_, h) = chars.next().ok_or_else(|| "short \\u".to_string())?;
                                code = code * 16
                                    + h.to_digit(16).ok_or_else(|| "bad \\u digit".to_string())?;
                            }
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad \\u code".to_string())?,
                            );
                        }
                        other => return Err(format!("unsupported escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    /// `[[a,b],...]` (possibly empty).
    fn pairs(&mut self) -> Result<Vec<(u32, u64)>, String> {
        self.lit("[")?;
        let mut out = Vec::new();
        if self.eat(']') {
            return Ok(out);
        }
        loop {
            self.lit("[")?;
            let a = self.u64()? as u32;
            self.lit(",")?;
            let b = self.u64()?;
            self.lit("]")?;
            out.push((a, b));
            if !self.eat(',') {
                break;
            }
        }
        self.lit("]")?;
        Ok(out)
    }

    /// `[[a,b,c],...]` with full-width b (histogram counts can pass u32).
    fn triples_wide(&mut self) -> Result<Vec<(u32, u64, u64)>, String> {
        self.lit("[")?;
        let mut out = Vec::new();
        if self.eat(']') {
            return Ok(out);
        }
        loop {
            self.lit("[")?;
            let a = self.u64()? as u32;
            self.lit(",")?;
            let b = self.u64()?;
            self.lit(",")?;
            let c = self.u64()?;
            self.lit("]")?;
            out.push((a, b, c));
            if !self.eat(',') {
                break;
            }
        }
        self.lit("]")?;
        Ok(out)
    }

    /// `[[a,b,c],...]` (possibly empty).
    fn triples(&mut self) -> Result<Vec<(u32, u32, u64)>, String> {
        self.lit("[")?;
        let mut out = Vec::new();
        if self.eat(']') {
            return Ok(out);
        }
        loop {
            self.lit("[")?;
            let a = self.u64()? as u32;
            self.lit(",")?;
            let b = self.u64()? as u32;
            self.lit(",")?;
            let c = self.u64()?;
            self.lit("]")?;
            out.push((a, b, c));
            if !self.eat(',') {
                break;
            }
        }
        self.lit("]")?;
        Ok(out)
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(40)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        let c0 = r.counter("phy.frames_tx{kind=data}");
        let c1 = r.counter("phy.frames_rx");
        let g = r.gauge("mac.queue_depth{mac=csma}");
        let h = r.histogram("mac.retry_hist");
        r.add(c0, 3);
        r.inc(c1);
        r.set_gauge(g, 4);
        r.observe(h, 0);
        r.observe(h, 9);
        r
    }

    #[test]
    fn header_round_trip() {
        let r = sample_registry();
        let mut line = String::new();
        SnapshotEncoder::write_header(&r, &mut line);
        let parsed = MetricsLine::parse(&line).unwrap();
        match parsed {
            MetricsLine::Header { version, metrics } => {
                assert_eq!(version, METRICS_WIRE_VERSION);
                let expect: Vec<_> = r.descs().iter().map(|d| (d.name.clone(), d.kind)).collect();
                assert_eq!(metrics, expect);
            }
            other => panic!("expected header, got {other:?}"),
        }
    }

    #[test]
    fn delta_is_sparse_and_advances_baseline() {
        let mut r = sample_registry();
        let mut enc = SnapshotEncoder::new(&r);
        let mut line = String::new();
        enc.encode_delta(&r, 1_000, &mut line);
        match MetricsLine::parse(&line).unwrap() {
            MetricsLine::Delta {
                t_ns,
                counters,
                gauges,
                hist,
            } => {
                assert_eq!(t_ns, 1_000);
                assert_eq!(counters, vec![(0, 3), (1, 1)]);
                assert_eq!(gauges, vec![(0, 4)]); // per-type index: first gauge
                assert_eq!(hist, vec![(0, 0, 1), (0, 4, 1)]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
        // Nothing moved: the next delta is empty (but still a line).
        line.clear();
        enc.encode_delta(&r, 2_000, &mut line);
        match MetricsLine::parse(&line).unwrap() {
            MetricsLine::Delta {
                counters,
                gauges,
                hist,
                ..
            } => {
                assert!(counters.is_empty() && gauges.is_empty() && hist.is_empty());
            }
            other => panic!("expected delta, got {other:?}"),
        }
        // A counter moves by 2: only it appears, with the increment.
        let id = match r.descs()[1].kind {
            MetricType::Counter => crate::registry::CounterId(1),
            _ => unreachable!(),
        };
        r.add(id, 2);
        line.clear();
        enc.encode_delta(&r, 3_000, &mut line);
        match MetricsLine::parse(&line).unwrap() {
            MetricsLine::Delta { counters, .. } => assert_eq!(counters, vec![(1, 2)]),
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn totals_round_trip() {
        let r = sample_registry();
        let mut line = String::new();
        SnapshotEncoder::write_totals(&r, 5_000, &mut line);
        match MetricsLine::parse(&line).unwrap() {
            MetricsLine::Total {
                t_ns,
                counters,
                gauges,
                hist,
                hist_stats,
            } => {
                assert_eq!(t_ns, 5_000);
                assert_eq!(counters, vec![(0, 3), (1, 1)]);
                assert_eq!(gauges, vec![(0, 4)]);
                assert_eq!(hist, vec![(0, 0, 1), (0, 4, 1)]);
                assert_eq!(hist_stats, vec![(0, 2, 9)]);
            }
            other => panic!("expected totals, got {other:?}"),
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let build = || {
            let r = sample_registry();
            let mut enc = SnapshotEncoder::new(&r);
            let mut out = String::new();
            SnapshotEncoder::write_header(&r, &mut out);
            enc.encode_delta(&r, 7, &mut out);
            SnapshotEncoder::write_totals(&r, 7, &mut out);
            out
        };
        assert_eq!(build(), build());
    }
}
