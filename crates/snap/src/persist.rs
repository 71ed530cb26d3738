//! [`Persist`]: one declaration of a type's snapshot bytes.
//!
//! A type's snapshot format is the order of its fields. `#[derive(Persist)]`
//! (re-exported from `itesp-snap-derive`) writes named fields in
//! declaration order and reads them back in the same order, so the save
//! and load sides cannot drift apart. This module supplies the impls
//! for the leaves and containers the workspace stores:
//!
//! * integers, `bool`, `f64` (exact bit pattern) and `String`, at their
//!   native width — a `u32` is 4 bytes;
//! * `Option<T>`: a presence `bool`, then the value;
//! * `Vec`, `VecDeque`, maps and sets: a `u64` length, then the items;
//!   hash containers in sorted key order, so the bytes are a pure
//!   function of the state, and a repeated key on load is
//!   [`SnapError::Corrupt`];
//! * fixed arrays and tuples: their items, without a length.
//!
//! `load` overwrites `self` in place: a struct keeps the value of every
//! `#[persist(skip)]` field (config, derived state), while containers
//! rebuild their items from `Default`. Fixed-shape state whose length
//! comes from the configuration loads through [`SnapReader::load_exact`],
//! which refuses a snapshot of a different shape.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hash};

use crate::wire::{SnapError, SnapReader, SnapWriter};

/// A value with a snapshot encoding. See the module docs.
pub trait Persist {
    /// Append this value's bytes.
    fn save(&self, w: &mut SnapWriter);

    /// Overwrite this value from the bytes [`Persist::save`] wrote.
    /// `what` labels decode errors of leaf values; derived structs
    /// label each field `Type.field` instead.
    ///
    /// # Errors
    /// The typed [`SnapError`] of the first read that failed.
    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError>;
}

impl SnapWriter {
    /// Append `v`'s snapshot bytes.
    pub fn put<T: Persist + ?Sized>(&mut self, v: &T) {
        v.save(self);
    }
}

impl SnapReader<'_> {
    /// Decode a fresh value.
    ///
    /// # Errors
    /// See [`Persist::load`].
    pub fn get<T: Persist + Default>(&mut self, what: &'static str) -> Result<T, SnapError> {
        let mut v = T::default();
        v.load(self, what)?;
        Ok(v)
    }

    /// Load a length-prefixed sequence into `items` in place, refusing
    /// a snapshot whose length differs — for per-bank, per-core or
    /// per-slot state whose count the configuration fixes.
    ///
    /// # Errors
    /// [`SnapError::Corrupt`] labelled `what` on a length mismatch, or
    /// the first item's decode error.
    pub fn load_exact<T: Persist>(
        &mut self,
        items: &mut [T],
        what: &'static str,
    ) -> Result<(), SnapError> {
        items.load(self, what)
    }
}

macro_rules! leaf {
    ($($t:ident),*) => {$(
        impl Persist for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }

            fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
                *self = r.$t(what)?;
                Ok(())
            }
        }
    )*};
}

leaf!(u8, u16, u32, u64, usize, bool, f64);

impl Persist for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        let s = r.str(what)?;
        self.clear();
        self.push_str(s);
        Ok(())
    }
}

impl<T: Persist + Default> Persist for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }

    /// A present value loads into the existing one when there is one,
    /// so its skipped fields survive.
    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        if r.bool(what)? {
            self.get_or_insert_with(T::default).load(r, what)
        } else {
            *self = None;
            Ok(())
        }
    }
}

impl<T: Persist, const N: usize> Persist for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        self.iter().for_each(|v| v.save(w));
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        self.iter_mut().try_for_each(|v| v.load(r, what))
    }
}

macro_rules! tuple {
    ($($name:ident $idx:tt),+) => {
        impl<$($name: Persist),+> Persist for ($($name,)+) {
            fn save(&self, w: &mut SnapWriter) {
                $(self.$idx.save(w);)+
            }

            fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
                $(self.$idx.load(r, what)?;)+
                Ok(())
            }
        }
    };
}

tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7);

/// A length prefix and the items, like `Vec`; loading is in place and
/// refuses a different length (see [`SnapReader::load_exact`]).
impl<T: Persist> Persist for [T] {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        let at = r.pos();
        if r.seq_len(what)? != self.len() {
            return Err(SnapError::Corrupt { what, at });
        }
        self.iter_mut().try_for_each(|item| item.load(r, what))
    }
}

/// Write a length prefix and every item.
fn save_seq<'a, T: Persist + 'a>(w: &mut SnapWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.usize(items.len());
    items.for_each(|v| v.save(w));
}

/// Read a length prefix, then decode that many fresh items into `push`.
fn load_seq<T: Persist + Default>(
    r: &mut SnapReader,
    what: &'static str,
    mut push: impl FnMut(T) -> bool,
) -> Result<(), SnapError> {
    for _ in 0..r.seq_len(what)? {
        let at = r.pos();
        if !push(r.get(what)?) {
            return Err(SnapError::Corrupt { what, at });
        }
    }
    Ok(())
}

impl<T: Persist + Default> Persist for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        self.as_slice().save(w);
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, what, |v| {
            self.push(v);
            true
        })
    }
}

impl<T: Persist + Default> Persist for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, what, |v| {
            self.push_back(v);
            true
        })
    }
}

impl<K: Persist + Default + Ord, V: Persist + Default> Persist for BTreeMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.save(w);
            v.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, what, |(k, v)| self.insert(k, v).is_none())
    }
}

impl<T: Persist + Default + Ord> Persist for BTreeSet<T> {
    fn save(&self, w: &mut SnapWriter) {
        save_seq(w, self.iter());
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, what, |v| self.insert(v))
    }
}

impl<K, V, S> Persist for HashMap<K, V, S>
where
    K: Persist + Default + Ord + Hash,
    V: Persist + Default,
    S: BuildHasher,
{
    /// Sorted by key: iteration order is not part of the state.
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, what, |(k, v)| self.insert(k, v).is_none())
    }
}

impl<T, S> Persist for HashSet<T, S>
where
    T: Persist + Default + Ord + Hash,
    S: BuildHasher,
{
    /// Sorted: iteration order is not part of the state.
    fn save(&self, w: &mut SnapWriter) {
        let mut items: Vec<_> = self.iter().collect();
        items.sort_unstable();
        save_seq(w, items.into_iter());
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        self.clear();
        load_seq(r, what, |v| self.insert(v))
    }
}
