//! Re-export of the shared [`cardopc_json`] crate, plus the direct object
//! writer of the run's hot encoders.
//!
//! The JSON machinery started life in this module and was promoted to its
//! own crate so `cardopc-serve` can speak the same wire format without
//! copying it; `cardopc_runtime::json::Json` keeps working unchanged.

pub use cardopc_json::Json;
use cardopc_json::{write_count, write_num, write_str};

/// One JSON object written straight into a string, member by member, in
/// the bytes [`Json::to_string_compact`] gives the same tree: numbers and
/// strings go through the json crate's own writers. The manifest and tile
/// line encoders use it instead of building a tree; their tests keep the
/// tree encoders as oracles.
pub(crate) struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> Object<'a> {
    /// Opens an object at the end of `out`.
    pub(crate) fn open(out: &'a mut String) -> Object<'a> {
        out.push('{');
        Object { out, empty: true }
    }

    /// Writes `key`'s name and colon; the caller writes its value into the
    /// returned string.
    pub(crate) fn member(&mut self, key: &'static str) -> &mut String {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        // Member names are identifiers in this crate's source, which need
        // no escape: quoted as they are, they are `write_str`'s bytes.
        debug_assert!(key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'));
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    /// A number member (`null` when not finite).
    pub(crate) fn num(&mut self, key: &'static str, v: f64) -> &mut Self {
        write_num(self.member(key), v);
        self
    }

    /// A count member, as [`Json::num_usize`] holds it.
    pub(crate) fn count(&mut self, key: &'static str, v: usize) -> &mut Self {
        write_count(self.member(key), v);
        self
    }

    /// A string member.
    pub(crate) fn str(&mut self, key: &'static str, v: &str) -> &mut Self {
        write_str(self.member(key), v);
        self
    }

    /// A boolean member.
    pub(crate) fn bool(&mut self, key: &'static str, v: bool) -> &mut Self {
        self.member(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// An array-of-numbers member.
    pub(crate) fn nums(&mut self, key: &'static str, values: &[f64]) -> &mut Self {
        array(self.member(key), values, |out, &v| write_num(out, v));
        self
    }

    /// An array-of-counts member.
    pub(crate) fn counts(&mut self, key: &'static str, values: &[usize]) -> &mut Self {
        array(self.member(key), values, |out, &v| write_count(out, v));
        self
    }

    /// Closes the object.
    pub(crate) fn close(self) {
        self.out.push('}');
    }
}

/// Writes `items` as a JSON array, each by `item`.
pub(crate) fn array<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}
