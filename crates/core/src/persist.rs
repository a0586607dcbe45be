//! Persistence of extracted dependence graphs and wavefront schedules.
//!
//! The paper amortizes DDG extraction by reusing the wavefront schedule
//! "throughout the remainder of the program execution"; for programs
//! that run repeatedly on the same deck (SPICE re-analyzing one
//! circuit), the natural extension is to persist the schedule across
//! *process* lifetimes. This module provides a small, versioned,
//! self-describing binary format — no external serializer needed — with
//! checksummed round-trips.
//!
//! Format (all integers little-endian):
//!
//! ```text
//! magic "RLPD" | u32 version | u8 kind | payload … | u64 checksum
//! ```
//!
//! ## The checksum, and the chain
//!
//! Writers seal version 2: the checksum is `checksum`, a word-parallel
//! 64-bit hash (four multiply–rotate lanes over 32-byte blocks, then the
//! 8-byte words and the bytes left over, the length, and a final
//! avalanche) that runs at memory speed. Every one of its steps is a
//! bijection of its state for a fixed input, and each lane step and tail
//! step is also a bijection of the input word for a fixed state — so a
//! substitution inside any one 8-byte word of a record (any single
//! corrupted byte, in particular) changes the sum *by construction*, not
//! with high probability. A record's **chain value** — what the next
//! record of a journal or of a worker's commit stream embeds to bind
//! itself to its predecessor — is a fixed bijective function of the
//! stored checksum, which already binds every byte in front of it:
//! opening a record yields its chain value without a second pass.
//!
//! Version 1 (byte-serial FNV-1a; chain value = FNV-1a of the whole
//! record, checksum included) is still read: `Reader` verifies and
//! chains each record by the version it carries, so a journal written by
//! an older binary resumes with version-2 records appended behind its
//! version-1 prefix, and artifacts and daemon state written before still
//! load. Nothing writes version 1.
//!
//! ## The bound on a count read from outside
//!
//! Every record that crosses a process boundary — these artifacts, the
//! journal's records, the worker and serve frames — is decoded through
//! [`Reader`], and a count a record declares is outside input: the
//! checksum is not a MAC, so whoever writes the bytes can reseal them.
//! The rule is stated once, in [`Reader::list`]: *`count` elements of at
//! least `min_elem_bytes` encoded bytes each must fit in what is left of
//! the payload, checked before anything is allocated*. A count therefore
//! never reserves more than a small constant multiple (an element's size
//! in memory over its encoded minimum, at most 3) of the bytes actually
//! present. [`Reader::blob`] and [`Reader::string`] are the same rule at
//! one byte per element; no decoder sees how many bytes are left.
//!
//! `min_elem_bytes` is a literal at each call site, beside the reads it
//! counts (`r.list(n, 12, |r| Ok((r.u32()?, r.u64()?)))`; a nested list
//! counts as its count field): derived from a type it would follow the
//! in-memory layout, which is not the encoding. Too small only loosens
//! the multiple; too large refuses a valid record, which every
//! round-trip test catches.

use crate::ddg::DepGraph;
use crate::wavefront::WavefrontSchedule;

const MAGIC: &[u8; 4] = b"RLPD";
/// The envelope version every writer seals: [`checksum`].
const VERSION: u32 = 2;
/// The envelope version sealed with FNV-1a, read and never written.
const VERSION_FNV: u32 = 1;
/// Bytes of framing around a payload: magic, version, kind, checksum.
const ENVELOPE: usize = 4 + 4 + 1 + 8;
const KIND_GRAPH: u8 = 1;
const KIND_SCHEDULE: u8 = 2;
/// Crash-journal header record (first record of a journal file).
pub(crate) const KIND_JOURNAL_HEADER: u8 = 3;
/// Crash-journal per-stage commit record.
pub(crate) const KIND_JOURNAL_COMMIT: u8 = 4;
/// Distributed wire: supervisor→worker session hello (run identity +
/// loop spec). The embedded run-identity record is a
/// [`KIND_JOURNAL_HEADER`] chained from the journal seed.
pub(crate) const KIND_DIST_HELLO: u8 = 5;
/// Distributed wire: supervisor→worker block request.
pub(crate) const KIND_DIST_REQUEST: u8 = 6;
/// Distributed wire: worker→supervisor block reply.
pub(crate) const KIND_DIST_REPLY: u8 = 7;
/// Distributed wire: worker→supervisor liveness heartbeat.
pub(crate) const KIND_DIST_HEARTBEAT: u8 = 8;
/// Distributed wire: supervisor→worker orderly shutdown.
pub(crate) const KIND_DIST_SHUTDOWN: u8 = 9;
/// Serve wire: client→daemon job submission (loop spec + run options +
/// idempotency key).
pub(crate) const KIND_SERVE_SUBMIT: u8 = 10;
/// Serve wire: daemon→client admission decision (accepted / queued /
/// typed rejection).
pub(crate) const KIND_SERVE_DECISION: u8 = 11;
/// Serve wire: daemon→client terminal job status (exit-code contract +
/// report digest). Also the on-disk status sidecar record.
pub(crate) const KIND_SERVE_STATUS: u8 = 12;
/// Serve wire: daemon→client frontier summary, substituted for dropped
/// journal frames when a slow client's stream buffer overflows.
pub(crate) const KIND_SERVE_SUMMARY: u8 = 13;
/// Serve wire: client→daemon status query by idempotency key.
pub(crate) const KIND_SERVE_STATUS_REQ: u8 = 14;

/// Errors from decoding a persisted artifact.
#[derive(Debug, PartialEq, Eq)]
pub enum PersistError {
    /// Too short / wrong magic bytes.
    NotAnArtifact,
    /// Produced by an incompatible library version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
    },
    /// The payload kind does not match the requested type.
    WrongKind,
    /// Truncated or corrupted payload.
    Corrupt,
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::NotAnArtifact => write!(f, "not an rlrpd artifact"),
            PersistError::VersionMismatch { found } => {
                write!(
                    f,
                    "artifact version {found} is neither {VERSION} nor {VERSION_FNV}"
                )
            }
            PersistError::WrongKind => write!(f, "artifact holds a different type"),
            PersistError::Corrupt => write!(f, "artifact truncated or corrupted"),
        }
    }
}

impl std::error::Error for PersistError {}

pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new(kind: u8) -> Self {
        Self::with_payload(kind, 0)
    }

    /// A writer for a record whose payload is known to be `payload`
    /// bytes: the buffer is sized once instead of growing from empty.
    pub(crate) fn with_payload(kind: u8, payload: usize) -> Self {
        let mut buf = Vec::with_capacity(ENVELOPE + payload);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(kind);
        Writer { buf }
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn edges(&mut self, edges: &[(u32, u32)]) {
        self.u64(edges.len() as u64);
        for &(a, b) in edges {
            self.u32(a);
            self.u32(b);
        }
    }

    /// `u64 len | bytes`: what [`Reader::blob`] and [`Reader::string`]
    /// read back.
    pub(crate) fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.finish_chained().0
    }

    /// The finished record and its chain value ([`chain_of`] its
    /// checksum: the record is hashed once).
    pub(crate) fn finish_chained(mut self) -> (Vec<u8>, u64) {
        let sum = checksum(&self.buf);
        self.u64(sum);
        (self.buf, chain_of(sum))
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn open(buf: &'a [u8], kind: u8) -> Result<Self, PersistError> {
        Self::open_chained(buf, kind).map(|(r, _)| r)
    }

    /// [`Reader::open`], also returning the record's chain value (see
    /// [`Writer::finish_chained`]) from the one checksum pass. A record
    /// is verified and chained by the version it carries.
    pub(crate) fn open_chained(buf: &'a [u8], kind: u8) -> Result<(Self, u64), PersistError> {
        let (body, stored) = envelope(buf)?;
        let chain = match version_of(buf) {
            VERSION if checksum(body) == stored => chain_of(stored),
            VERSION_FNV if fnv(body) == stored => fnv_from(stored, &stored.to_le_bytes()),
            VERSION | VERSION_FNV => return Err(PersistError::Corrupt),
            found => return Err(PersistError::VersionMismatch { found }),
        };
        if buf[8] != kind {
            return Err(PersistError::WrongKind);
        }
        Ok((Reader { buf: body, pos: 9 }, chain))
    }

    /// Unread bytes of the payload.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `len` bytes of the payload, which every read goes
    /// through — or `Corrupt` when fewer are left.
    fn take(&mut self, len: u64) -> Result<&'a [u8], PersistError> {
        if len > self.remaining() as u64 {
            return Err(PersistError::Corrupt);
        }
        let start = self.pos;
        self.pos += len as usize;
        Ok(&self.buf[start..self.pos])
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        let bytes = self.take(8)?.try_into().expect("take(8) is 8 bytes");
        Ok(u64::from_le_bytes(bytes))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        let bytes = self.take(4)?.try_into().expect("take(4) is 4 bytes");
        Ok(u32::from_le_bytes(bytes))
    }

    /// **The bound** (module docs): `count` elements, each read by
    /// `elem` and each at least `min_elem_bytes` long when encoded, or
    /// `Corrupt` — before `elem` is entered or anything is reserved —
    /// when that many cannot fit in what is left of the payload.
    pub(crate) fn list<T>(
        &mut self,
        count: u64,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, PersistError>,
    ) -> Result<Vec<T>, PersistError> {
        if count > (self.remaining() / min_elem_bytes) as u64 {
            return Err(PersistError::Corrupt);
        }
        let mut out = Vec::with_capacity(count as usize);
        for _ in 0..count {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// A `u64 len | bytes` blob ([`Writer::blob`]), borrowed from the
    /// record: a length past the payload is `Corrupt`.
    pub(crate) fn blob(&mut self) -> Result<&'a [u8], PersistError> {
        let len = self.u64()?;
        self.take(len)
    }

    /// A blob that must be UTF-8.
    pub(crate) fn string(&mut self) -> Result<String, PersistError> {
        String::from_utf8(self.blob()?.to_vec()).map_err(|_| PersistError::Corrupt)
    }

    fn edges(&mut self) -> Result<Vec<(u32, u32)>, PersistError> {
        let n = self.u64()?;
        self.list(n, 8, |r| Ok((r.u32()?, r.u32()?)))
    }

    pub(crate) fn done(&self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PersistError::Corrupt)
        }
    }
}

/// A record's body (everything in front of its checksum) and its stored
/// checksum — or `NotAnArtifact` when `buf` is too short to be a record
/// or does not start with the magic.
fn envelope(buf: &[u8]) -> Result<(&[u8], u64), PersistError> {
    if buf.len() < ENVELOPE || &buf[..4] != MAGIC {
        return Err(PersistError::NotAnArtifact);
    }
    let (body, sum) = buf.split_at(buf.len() - 8);
    Ok((body, word(sum)))
}

/// The version field of a record [`envelope`] accepted.
fn version_of(record: &[u8]) -> u32 {
    u32::from_le_bytes(record[4..8].try_into().expect("4 version bytes"))
}

/// The chain value after `record` — how both ends of the worker wire
/// advance their commit chain, identical to the crash journal's on-disk
/// chain: a fixed bijection of the checksum the record ends with (FNV-1a
/// of the whole record for a version-1 record). Read, not verified
/// (decoding verifies); `None` when `record` is not a record of a
/// version this build reads.
pub fn record_chain(record: &[u8]) -> Option<u64> {
    let (_, stored) = envelope(record).ok()?;
    match version_of(record) {
        VERSION => Some(chain_of(stored)),
        VERSION_FNV => Some(fnv(record)),
        _ => None,
    }
}

/// Seal `record` again after its bytes were changed: the version-2
/// checksum of everything in front of its last eight bytes, stored
/// there, as a writer seals. For tests and tools that forge records on
/// purpose — the checksum is not a MAC, so what stands behind it is
/// each decoder's own checks.
///
/// # Panics
/// When `record` is shorter than a checksum.
pub fn reseal(record: &mut [u8]) {
    let body = record
        .len()
        .checked_sub(8)
        .expect("a record ends in its checksum");
    let sum = checksum(&record[..body]);
    record[body..].copy_from_slice(&sum.to_le_bytes());
}

/// The little-endian `u64` in the first eight bytes of `bytes`.
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

// The five odd 64-bit multipliers of xxHash64, which the checksum's
// steps borrow; being odd, multiplication by each is a bijection.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One multiply–rotate step: for a fixed `word` a bijection of `acc`
/// (add, rotate, multiply by an odd constant), and for a fixed `acc` a
/// bijection of `word` (multiply by an odd constant, then the same).
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// A bijective finaliser: every input bit reaches every output bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The version-2 checksum (module docs): four independent lanes of
/// [`round`] over 32-byte blocks, folded in lane order; then each
/// remaining 8-byte word, then each remaining byte, the length, and
/// [`avalanche`]. A changed word changes its lane from that block on (a
/// lane step is a bijection of the word, and every later step one of the
/// lane), the fold (a bijection of each lane in turn) and everything
/// after it; a changed tail word or byte likewise. The lanes carry no
/// dependence on each other, so the four words of a block are hashed
/// side by side, not one after another.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut blocks = bytes.chunks_exact(32);
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    for block in &mut blocks {
        for (k, lane) in lanes.iter_mut().enumerate() {
            *lane = round(*lane, word(&block[8 * k..]));
        }
    }
    let mut h = lanes.iter().fold(P5, |h, &lane| {
        (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
    });
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = round(h, word(w));
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    avalanche(h ^ bytes.len() as u64)
}

/// The chain value after a version-2 record whose checksum is `sum`: a
/// bijection of it (the checksum already binds the whole record), kept
/// distinct from the bytes the record ends with.
fn chain_of(sum: u64) -> u64 {
    avalanche(sum ^ P3)
}

/// FNV-1a: the version-1 checksum, and the fingerprints a journal header
/// stores (`journal::{strategy,elem}_fingerprint`), which must not change
/// while version-1 journals are resumed.
pub(crate) fn fnv(bytes: &[u8]) -> u64 {
    fnv_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from the running state `h`:
/// `fnv_from(fnv(a), b) == fnv(a ‖ b)`.
fn fnv_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl DepGraph {
    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_GRAPH);
        w.u64(self.n as u64);
        w.edges(&self.flow);
        w.edges(&self.anti);
        w.edges(&self.output);
        w.finish()
    }

    /// Deserialize from [`DepGraph::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::open(bytes, KIND_GRAPH)?;
        let n = r.u64()? as usize;
        let flow = r.edges()?;
        let anti = r.edges()?;
        let output = r.edges()?;
        r.done()?;
        Ok(DepGraph {
            n,
            flow,
            anti,
            output,
        })
    }
}

impl WavefrontSchedule {
    /// Serialize to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(KIND_SCHEDULE);
        w.u64(self.levels().len() as u64);
        for level in self.levels() {
            w.u64(level.len() as u64);
            for &i in level {
                w.u32(i);
            }
        }
        w.finish()
    }

    /// Deserialize from [`WavefrontSchedule::to_bytes`] output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::open(bytes, KIND_SCHEDULE)?;
        let num_levels = r.u64()?;
        let levels = r.list(num_levels, 8, |r| {
            let len = r.u64()?;
            r.list(len, 4, Reader::u32)
        })?;
        r.done()?;
        // An iteration scheduled twice is corruption, not a panic.
        WavefrontSchedule::checked(levels).map_err(|_| PersistError::Corrupt)
    }
}

/// Exhaustive decode-hardening harness, in two sweeps over a valid
/// artifact. **Stale**: every prefix truncation (0..len bytes) and every
/// single-byte corruption (all 255 non-identity values at every offset)
/// must return an error — that is the checksum's job. **Resealed**: the
/// checksum is not a MAC, so the same truncations and corruptions of
/// everything in front of it are made again with the checksum
/// recomputed, which is what reaches a decoder's own field checks; each
/// must decode to an error or to a value that `encode` turns back into
/// the mutant byte for byte (a decoder accepts one spelling of a value),
/// and none may panic. Shared by the artifact tests below and the
/// journal-record, wire and serve-frame tests.
#[cfg(test)]
pub(crate) fn assert_decode_hardened<T, E: std::fmt::Debug>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let valid = decode(bytes).expect("harness needs a valid artifact");
    assert!(encode(&valid) == bytes, "the artifact does not round-trip");
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "truncation to {cut} of {} bytes decoded successfully",
            bytes.len()
        );
    }
    let mut mangled = bytes.to_vec();
    for pos in 0..bytes.len() {
        for flip in 1..=255u8 {
            mangled[pos] = bytes[pos] ^ flip;
            assert!(
                decode(&mangled).is_err(),
                "corrupting byte {pos} with ^{flip:#04x} decoded successfully"
            );
        }
        mangled[pos] = bytes[pos];
    }

    // A mutant resealed with anything but the checksum the reader checks
    // would stop at the envelope like a stale one, and the sweep would
    // pass without reaching a single field check: every payload mutant
    // must get past the envelope to its decoder.
    let body = &bytes[..bytes.len() - 8];
    assert!(
        body.len() > 9,
        "the harness needs an artifact with a payload"
    );
    let kind = bytes[8];
    let resealed = |body: &[u8], what: std::fmt::Arguments<'_>| {
        let mut mutant = body.to_vec();
        mutant.extend_from_slice(&[0; 8]);
        reseal(&mut mutant);
        let past_envelope = Reader::open(&mutant, kind).is_ok();
        if let Ok(value) = decode(&mutant) {
            assert!(
                encode(&value) == mutant,
                "resealed, {what} decoded to a value that encodes differently"
            );
        }
        past_envelope
    };
    for cut in 0..body.len() {
        resealed(&body[..cut], format_args!("truncation to {cut} bytes"));
    }
    let mut mangled = body.to_vec();
    for pos in 0..body.len() {
        for flip in 1..=255u8 {
            mangled[pos] = body[pos] ^ flip;
            let past_envelope = resealed(&mangled, format_args!("byte {pos} ^{flip:#04x}"));
            assert!(
                past_envelope || pos < 9,
                "resealed, payload byte {pos} ^{flip:#04x} stopped at the envelope"
            );
        }
        mangled[pos] = body[pos];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::EdgeKind;
    use proptest::prelude::*;

    fn graph() -> DepGraph {
        DepGraph {
            n: 9,
            flow: vec![(0, 3), (1, 3), (3, 8)],
            anti: vec![(2, 5)],
            output: vec![(0, 8)],
        }
    }

    #[test]
    fn graph_round_trips() {
        let g = graph();
        let bytes = g.to_bytes();
        let back = DepGraph::from_bytes(&bytes).unwrap();
        assert_eq!(back.n, g.n);
        assert_eq!(back.flow, g.flow);
        assert_eq!(back.anti, g.anti);
        assert_eq!(back.output, g.output);
    }

    #[test]
    fn schedule_round_trips_and_stays_valid() {
        let g = graph();
        let s = WavefrontSchedule::from_graph(&g);
        let back = WavefrontSchedule::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.levels(), s.levels());
        assert_eq!(back.depth(), s.depth());
        // Persisted schedule still respects every edge.
        let mut level_of = vec![0usize; g.n];
        for (l, iters) in back.levels().iter().enumerate() {
            for &i in iters {
                level_of[i as usize] = l;
            }
        }
        for (a, b) in g.edges(&[EdgeKind::Flow, EdgeKind::Anti, EdgeKind::Output]) {
            assert!(level_of[a as usize] < level_of[b as usize]);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = graph().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(
            DepGraph::from_bytes(&bytes),
            Err(PersistError::Corrupt)
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = graph().to_bytes();
        for cut in [0usize, 3, 8, bytes.len() - 1] {
            assert!(DepGraph::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let g = graph();
        let s = WavefrontSchedule::from_graph(&g);
        assert!(matches!(
            DepGraph::from_bytes(&s.to_bytes()),
            Err(PersistError::WrongKind)
        ));
        assert!(WavefrontSchedule::from_bytes(&g.to_bytes()).is_err());
    }

    #[test]
    fn wrong_magic_is_rejected() {
        assert!(matches!(
            DepGraph::from_bytes(b"NOPEnope"),
            Err(PersistError::NotAnArtifact)
        ));
    }

    #[test]
    fn graph_decoding_survives_every_truncation_and_corruption() {
        assert_decode_hardened(
            &graph().to_bytes(),
            DepGraph::from_bytes,
            DepGraph::to_bytes,
        );
    }

    #[test]
    fn schedule_decoding_survives_every_truncation_and_corruption() {
        let s = WavefrontSchedule::from_graph(&graph());
        assert_decode_hardened(
            &s.to_bytes(),
            WavefrontSchedule::from_bytes,
            WavefrontSchedule::to_bytes,
        );
        // A resealed schedule that names an iteration twice is corrupt
        // (`from_levels` would panic on it).
        let mut w = Writer::new(KIND_SCHEDULE);
        for v in [2u64, 2] {
            w.u64(v);
        }
        w.u32(0);
        w.u32(1);
        w.u64(1);
        w.u32(1);
        assert_eq!(
            WavefrontSchedule::from_bytes(&w.finish()).map(|s| s.depth()),
            Err(PersistError::Corrupt)
        );
    }

    /// The bound, at its one home: a count that cannot fit is refused
    /// before the element closure runs once or a byte is reserved.
    #[test]
    fn a_list_count_is_bounded_by_the_bytes_left_before_any_element_is_read() {
        let mut w = Writer::new(KIND_GRAPH);
        for k in 0..5u32 {
            w.u64(k as u64);
            w.u32(k);
        }
        let bytes = w.finish();
        let triple = |r: &mut Reader<'_>| Ok((r.u64()?, r.u32()?));
        for (count, fits) in [(5, true), (6, false), (u64::MAX, false), (0, true)] {
            let mut r = Reader::open(&bytes, KIND_GRAPH).unwrap();
            assert_eq!(r.remaining(), 60);
            let mut entered = 0;
            let got = r.list(count, 12, |r| {
                entered += 1;
                triple(r)
            });
            if fits {
                let want: Vec<_> = (0..count).map(|k| (k, k as u32)).collect();
                assert_eq!(got, Ok(want), "count {count}");
                assert_eq!(entered, count);
            } else {
                assert_eq!(got, Err(PersistError::Corrupt), "count {count}");
                assert_eq!(entered, 0, "count {count}: an element was read");
                assert_eq!(r.remaining(), 60, "count {count}: bytes were consumed");
            }
        }
        // Elements longer than their declared minimum still end at the
        // payload: the closure's own reads are checked too.
        let mut r = Reader::open(&bytes, KIND_GRAPH).unwrap();
        assert_eq!(r.list(6, 8, triple), Err(PersistError::Corrupt));

        let mut w = Writer::new(KIND_GRAPH);
        w.blob(b"caf\xc3\xa9");
        w.u64(u64::MAX); // a declared length past the payload
        let bytes = w.finish();
        let mut r = Reader::open(&bytes, KIND_GRAPH).unwrap();
        assert_eq!(r.string().as_deref(), Ok("café"));
        assert_eq!(r.blob(), Err(PersistError::Corrupt));
        let mut w = Writer::new(KIND_GRAPH);
        w.blob(&[0xff, 0xfe]);
        let bytes = w.finish();
        let mut r = Reader::open(&bytes, KIND_GRAPH).unwrap();
        assert_eq!(r.string(), Err(PersistError::Corrupt), "not UTF-8");
    }

    /// `record` as a version-1 writer sealed it: version 1, FNV-1a.
    fn as_v1(record: &[u8]) -> Vec<u8> {
        let mut old = record.to_vec();
        old[4..8].copy_from_slice(&VERSION_FNV.to_le_bytes());
        let body = old.len() - 8;
        let sum = fnv(&old[..body]);
        old[body..].copy_from_slice(&sum.to_le_bytes());
        old
    }

    #[test]
    fn each_version_chains_by_its_own_rule() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x52_4c50);
        for _ in 0..1000 {
            let len = rng.random_range(0usize..600);
            let mut w = Writer::with_payload(KIND_JOURNAL_COMMIT, len);
            for _ in 0..len {
                w.buf.push(rng.random_range(0u8..=255));
            }
            let (record, chain) = w.finish_chained();
            let stored = word(&record[record.len() - 8..]);
            assert_eq!(chain, chain_of(stored), "writer chain, {len}-byte payload");
            assert_eq!(record_chain(&record), Some(chain));
            let (r, read_chain) = Reader::open_chained(&record, KIND_JOURNAL_COMMIT).unwrap();
            assert_eq!(read_chain, chain, "reader chain, {len}-byte payload");
            let payload = r.buf[9..].to_vec();

            let old = as_v1(&record);
            let (r, old_chain) = Reader::open_chained(&old, KIND_JOURNAL_COMMIT).unwrap();
            assert_eq!(old_chain, fnv(&old), "version-1 chain, {len}-byte payload");
            assert_eq!(record_chain(&old), Some(old_chain));
            assert_eq!(
                r.buf[9..],
                payload[..],
                "the same payload under either seal"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The by-construction claim (module docs), held to every offset
        /// and every value of the body of random records.
        #[test]
        fn every_single_byte_substitution_changes_the_sum_and_every_truncation_is_refused(
            payload in prop::collection::vec(any::<u8>(), 0..600),
        ) {
            let mut w = Writer::with_payload(KIND_JOURNAL_COMMIT, payload.len());
            w.buf.extend_from_slice(&payload);
            let record = w.finish();
            let body = &record[..record.len() - 8];
            let sum = checksum(body);
            let mut mutant = body.to_vec();
            for pos in 0..body.len() {
                for flip in 1..=255u8 {
                    mutant[pos] = body[pos] ^ flip;
                    prop_assert!(checksum(&mutant) != sum, "byte {pos} ^{flip:#04x}");
                }
                mutant[pos] = body[pos];
            }
            for cut in 0..record.len() {
                prop_assert!(Reader::open(&record[..cut], KIND_JOURNAL_COMMIT).is_err());
            }
        }
    }

    #[test]
    fn artifacts_of_either_version_load_and_no_other_version_does() {
        let g = graph();
        let old = as_v1(&g.to_bytes());
        let decode = |bytes: &[u8]| DepGraph::from_bytes(bytes).map(|g| g.to_bytes());
        assert_eq!(decode(&old), Ok(g.to_bytes()));
        let mut stale = old.clone();
        stale[12] ^= 1;
        assert_eq!(decode(&stale), Err(PersistError::Corrupt));
        // A version-2 seal under a version-1 label, and the reverse.
        let mut relabelled = g.to_bytes();
        relabelled[4] = 1;
        assert_eq!(decode(&relabelled), Err(PersistError::Corrupt));
        let mut relabelled = old;
        relabelled[4] = 2;
        assert_eq!(decode(&relabelled), Err(PersistError::Corrupt));
        for found in [0u32, 3, u32::MAX] {
            let mut future = g.to_bytes();
            future[4..8].copy_from_slice(&found.to_le_bytes());
            reseal(&mut future);
            assert_eq!(
                decode(&future),
                Err(PersistError::VersionMismatch { found })
            );
            assert_eq!(record_chain(&future), None);
        }
        let s = WavefrontSchedule::from_graph(&g);
        let back = WavefrontSchedule::from_bytes(&as_v1(&s.to_bytes())).unwrap();
        assert_eq!(back.levels(), s.levels());
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = DepGraph {
            n: 0,
            ..Default::default()
        };
        let back = DepGraph::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(back.n, 0);
        assert_eq!(back.num_edges(), 0);
    }
}
