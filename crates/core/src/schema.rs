//! One declaration per record: the field types every wire, journal and
//! serve record is spelled in, and what a declaration derives.
//!
//! A record is declared once, with [`schema!`]: its fields in wire order
//! (not necessarily the struct's), each with the [`Wire`] type that
//! spells it. That list gives the encoder, the decoder, the encoded
//! length (a writer sizes its buffer once) and the fewest bytes the
//! record takes encoded — the bound [`Reader::list`] holds a count of
//! such records to, derived from the encoding, not the type in memory.
//!
//! **Canonical by construction.** Each field type accepts one spelling
//! of each value — a [`Flag`] is 0 or 1, an [`As`] fits the type it is
//! read into, an [`OrMax`] sentinel is only the sentinel, a [`Str`] is
//! UTF-8, a code names a variant — so a record that decodes re-encodes
//! to its bytes, and no decoder compares a re-encoding with its input.
//!
//! **What a declaration cannot say** is the record's `check`, a
//! `fn(&Self) -> bool` run on the decoded value (`false` is `Corrupt`):
//! a reply's mark codes, a commit record's ascending elements, a
//! schedule that is a permutation. A cost ledger is held to
//! `CostRuns::from_runs` as it is read, a block request's fault directive
//! to its range by `BlockRequest::decode`, and a journal record's chain
//! prefix by [`open`].

use crate::persist::{PersistError, Reader, Writer};
use std::marker::PhantomData;

/// How one field is spelled on the wire: a marker type naming the
/// in-memory value it carries.
pub(crate) trait Wire {
    /// What the field holds in memory.
    type Value;
    /// Fewest bytes an encoded value takes.
    const MIN: usize;
    /// Bytes `v` takes encoded (`MIN`, for a fixed-size field).
    fn len(_v: &Self::Value) -> usize {
        Self::MIN
    }
    /// Append `v`.
    fn put(v: &Self::Value, w: &mut Writer);
    /// Read a value back: `Corrupt` for any spelling `put` never writes.
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, PersistError>;
}

/// A field type of fixed length `$min`, written by `$put`, read by `$get`.
///
/// The leaf field types (these, [`As`] and tuples) are `#[inline]`: a
/// list's element loop must see through them, or a block reply decodes
/// at half the speed the hand-written decoder had.
macro_rules! field {
    ($ty:ty => $value:ty, $min:expr; |$v:ident, $w:ident| $put:expr; |$r:ident| $get:expr) => {
        impl Wire for $ty {
            type Value = $value;
            const MIN: usize = $min;
            #[inline]
            fn put($v: &$value, $w: &mut Writer) {
                $put
            }
            #[inline]
            fn get($r: &mut Reader<'_>) -> Result<$value, PersistError> {
                $get
            }
        }
    };
}

/// A `bool` carried as a `u32` that is 0 or 1.
pub(crate) struct Flag;
/// An `f64` carried as its bits.
pub(crate) struct Bits;

field!(() => (), 0; |_v, _w| {}; |_r| Ok(()));
field!(u32 => u32, 4; |v, w| w.u32(*v); |r| r.u32());
field!(u64 => u64, 8; |v, w| w.u64(*v); |r| r.u64());
field!(Bits => f64, 8; |v, w| w.u64(v.to_bits()); |r| r.u64().map(f64::from_bits));
field!(Flag => bool, 4; |v, w| w.u32(u32::from(*v)); |r| match r.u32()? {
    0 => Ok(false),
    1 => Ok(true),
    _ => Err(PersistError::Corrupt),
});

/// A `T` carried as the integer field `W`: a `usize` as a `u32` or a
/// `u64`, a `u32` as a `u64`, a `u8` as a `u32`. A value that does not
/// fit `T` is `Corrupt`; a `T` that does not fit `W` is a writer's bug,
/// and panics rather than spell another value.
pub(crate) struct As<T, W>(PhantomData<(T, W)>);

impl<T: Copy + TryFrom<W::Value>, W: Wire> Wire for As<T, W>
where
    W::Value: TryFrom<T>,
{
    type Value = T;
    const MIN: usize = W::MIN;
    #[inline]
    fn put(v: &T, w: &mut Writer) {
        let wide = W::Value::try_from(*v).ok();
        W::put(&wide.expect("a value wider than its wire field"), w);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<T, PersistError> {
        T::try_from(W::get(r)?).map_err(|_| PersistError::Corrupt)
    }
}

/// Bytes: `u64 len | bytes`.
pub(crate) struct Blob;
/// A [`Blob`] that must be UTF-8.
pub(crate) struct Str;

impl Wire for Blob {
    type Value = Vec<u8>;
    const MIN: usize = 8;
    fn len(v: &Vec<u8>) -> usize {
        8 + v.len()
    }
    fn put(v: &Vec<u8>, w: &mut Writer) {
        w.blob(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<u8>, PersistError> {
        r.blob().map(<[u8]>::to_vec)
    }
}

impl Wire for Str {
    type Value = String;
    const MIN: usize = 8;
    fn len(v: &String) -> usize {
        8 + v.len()
    }
    fn put(v: &String, w: &mut Writer) {
        w.blob(v.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<String, PersistError> {
        String::from_utf8(r.blob()?.to_vec()).map_err(|_| PersistError::Corrupt)
    }
}

/// A list: its length as the integer field `C`, then each element as
/// `E` — the count held to [`Reader::list`]'s bound at `E::MIN`.
pub(crate) struct List<C, E>(PhantomData<(C, E)>);

impl<C: Wire, E: Wire> Wire for List<C, E>
where
    C::Value: TryFrom<usize> + Into<u64>,
{
    type Value = Vec<E::Value>;
    const MIN: usize = C::MIN;
    fn len(v: &Self::Value) -> usize {
        C::MIN + v.iter().map(E::len).sum::<usize>()
    }
    fn put(v: &Self::Value, w: &mut Writer) {
        let count = C::Value::try_from(v.len()).ok();
        C::put(&count.expect("a list longer than its count field"), w);
        for e in v {
            E::put(e, w);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, PersistError> {
        const { assert!(E::MIN > 0, "a list element takes at least one byte") };
        let count = C::get(r)?.into();
        r.list(count, E::MIN, E::get)
    }
}

/// An `Option` whose `None` is `u64::MAX`, where a `Some`'s encoding
/// begins with a `u64` — which is therefore never read as `Some`.
pub(crate) struct OrMax<W>(PhantomData<W>);

impl<W: Wire> Wire for OrMax<W> {
    type Value = Option<W::Value>;
    const MIN: usize = 8;
    fn len(v: &Self::Value) -> usize {
        v.as_ref().map_or(8, W::len)
    }
    fn put(v: &Self::Value, w: &mut Writer) {
        match v {
            None => w.u64(u64::MAX),
            Some(v) => W::put(v, w),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, PersistError> {
        if r.peek_u64()? == u64::MAX {
            r.u64().map(|_| None)
        } else {
            W::get(r).map(Some)
        }
    }
}

/// Fields side by side, in order.
macro_rules! tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            type Value = ($($t::Value,)+);
            const MIN: usize = 0 $(+ $t::MIN)+;
            fn len(v: &Self::Value) -> usize {
                0 $(+ $t::len(&v.$i))+
            }
            #[inline]
            fn put(v: &Self::Value, w: &mut Writer) {
                $($t::put(&v.$i, w);)+
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self::Value, PersistError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

tuple!(A 0, B 1);
tuple!(A 0, B 1, C 2);
tuple!(A 0, B 1, C 2, D 3, E 4);

/// Declare a record: a struct whose every field is `name: Type => Wire`,
/// in wire order, and which is then a [`Wire`] field type of its own —
/// a record, or an element of one. `@ KIND` after the name adds the
/// record's public `encode` / `decode` under that envelope kind, and
/// `check path` after the fields names its check (module docs).
///
/// A struct declared apart takes its schema alone, `Name { field: Wire,
/// … }`; fields one type spells together are named side by side there
/// (`exited_at, fallback: ExitFlags`).
macro_rules! schema {
    (
        $(#[$meta:meta])*
        $vis:vis struct $ty:ident $(@ $kind:ident)? {
            $($(#[$fmeta:meta])* $fvis:vis $f:ident: $fty:ty => $fwire:ty),* $(,)?
        } $(check $c:path)?
    ) => {
        $(#[$meta])*
        $vis struct $ty {
            $($(#[$fmeta])* $fvis $f: $fty),*
        }
        schema!($ty $(@ $kind)? { $($f: $fwire),* } $(check $c)?);
    };
    (
        $ty:ident $(@ $kind:ident)? {
            $($($field:ident),+ : $wire:ty),* $(,)?
        } $(check $check:path)?
    ) => {
        impl $crate::schema::Wire for $ty {
            type Value = Self;
            const MIN: usize = 0 $(+ <$wire as $crate::schema::Wire>::MIN)*;
            #[allow(unused_parens)]
            fn len(v: &Self) -> usize {
                0 $(+ <$wire as $crate::schema::Wire>::len(&($(v.$field),+)))*
            }
            #[allow(unused_parens)]
            fn put(v: &Self, w: &mut $crate::persist::Writer) {
                $(<$wire as $crate::schema::Wire>::put(&($(v.$field),+), w);)*
            }
            #[allow(unused_parens)]
            fn get(
                r: &mut $crate::persist::Reader<'_>,
            ) -> Result<Self, $crate::persist::PersistError> {
                $(let ($($field),+) = <$wire as $crate::schema::Wire>::get(r)?;)*
                let v = $ty { $($($field),+),* };
                $(if !$check(&v) {
                    return Err($crate::persist::PersistError::Corrupt);
                })?
                Ok(v)
            }
        }
        $(impl $ty {
            /// Encode to its record ([`crate::schema`]).
            pub fn encode(&self) -> Vec<u8> {
                $crate::schema::encode::<Self>($kind, self)
            }

            /// Decode from its record: bytes [`Self::encode`] does not
            /// write for any value are an error.
            pub fn decode(bytes: &[u8]) -> Result<Self, $crate::persist::PersistError> {
                $crate::schema::decode::<Self>($kind, bytes)
            }
        })?
    };
}

pub(crate) use schema;

/// `v` as a record of envelope kind `kind` — chained onto the record
/// before it when `prev_chain` is given, which then opens its payload —
/// and the chain value after it.
pub(crate) fn seal<W: Wire>(kind: u8, prev_chain: Option<u64>, v: &W::Value) -> (Vec<u8>, u64) {
    let mut w = Writer::with_payload(kind, prev_chain.map_or(0, |_| 8) + W::len(v));
    prev_chain.inspect(|&prev| w.u64(prev));
    W::put(v, &mut w);
    w.finish()
}

/// The value a record of kind `kind` holds — if it chains onto
/// `prev_chain`, when that is given — and the chain value after it.
pub(crate) fn open<W: Wire>(
    kind: u8,
    bytes: &[u8],
    prev_chain: Option<u64>,
) -> Result<(W::Value, u64), PersistError> {
    let (mut r, chain) = Reader::open(bytes, kind)?;
    if prev_chain.is_some_and(|prev| r.u64() != Ok(prev)) {
        return Err(PersistError::Corrupt);
    }
    let v = W::get(&mut r)?;
    r.done().map(|()| (v, chain))
}

/// `v` as a record of envelope kind `kind`.
pub(crate) fn encode<W: Wire>(kind: u8, v: &W::Value) -> Vec<u8> {
    seal::<W>(kind, None, v).0
}

/// The value a record of kind `kind` holds.
pub(crate) fn decode<W: Wire>(kind: u8, bytes: &[u8]) -> Result<W::Value, PersistError> {
    open::<W>(kind, bytes, None).map(|(v, _)| v)
}
