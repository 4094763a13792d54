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

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
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

/// Joins lineage ids into the flat comma-separated wire string.
pub fn join_lineage(ids: impl IntoIterator<Item = LineageId>) -> String {
    let mut out = String::new();
    for id in ids {
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str(&id.to_string());
    }
    out
}

/// A `Copy` handle into a [`LineageTable`]: the interned identity of one
/// lineage wire string (a single id or a joined set).
///
/// Packets carry this instead of the string itself, so requeues, retries,
/// and frame clones on the hot path move a `u32` rather than touching the
/// heap. Handles are only meaningful against the table that issued them —
/// one table per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineageHandle(u32);

impl LineageHandle {
    /// The raw table index (diagnostics only).
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

/// A per-run intern table for lineage wire strings.
///
/// [`intern`](LineageTable::intern) deduplicates: the same wire string (an
/// event's id, or a stable aggregate set) allocates once and every later
/// occurrence returns the same handle. [`resolve`](LineageTable::resolve)
/// turns a handle back into the wire string at trace-emission time, so the
/// NDJSON schema is unchanged — interning is invisible outside the process.
#[derive(Debug, Default)]
pub struct LineageTable {
    /// Handle → string, in interning order. Shares its `Rc`s with `index`.
    strings: Vec<Rc<str>>,
    index: HashMap<Rc<str>, u32>,
}

impl LineageTable {
    /// An empty table.
    pub fn new() -> Self {
        LineageTable::default()
    }

    /// Interns `wire`, returning the existing handle if it was seen before.
    pub fn intern(&mut self, wire: &str) -> LineageHandle {
        if let Some(&ix) = self.index.get(wire) {
            return LineageHandle(ix);
        }
        let ix = u32::try_from(self.strings.len()).expect("over 4G distinct lineage strings");
        let s: Rc<str> = Rc::from(wire);
        self.strings.push(Rc::clone(&s));
        self.index.insert(s, ix);
        LineageHandle(ix)
    }

    /// The wire string behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` came from a different table (and is out of range
    /// for this one).
    pub fn resolve(&self, handle: LineageHandle) -> &str {
        &self.strings[handle.0 as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the table is empty (always true on untraced runs).
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// Splits a wire string back into lineage ids. Malformed entries are
/// dropped (the caller counts them as skipped, like unparsable lines).
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

    #[test]
    fn interning_dedupes_and_resolves() {
        let mut table = LineageTable::new();
        assert!(table.is_empty());
        let a = table.intern("3#12");
        let b = table.intern("3#12,5#12");
        let a2 = table.intern("3#12");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(table.len(), 2);
        assert_eq!(table.resolve(a), "3#12");
        assert_eq!(table.resolve(b), "3#12,5#12");
        // Handles are plain indices in interning order.
        assert_eq!(a.as_u32(), 0);
        assert_eq!(b.as_u32(), 1);
    }
}
