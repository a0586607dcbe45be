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
//! magic "RLPD" | u32 version | u8 kind | payload … | u64 fnv checksum
//! ```

use crate::ddg::DepGraph;
use crate::wavefront::WavefrontSchedule;

const MAGIC: &[u8; 4] = b"RLPD";
const VERSION: u32 = 1;
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
                write!(f, "artifact version {found} != {VERSION}")
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

    /// Append raw bytes (callers write their own length prefix).
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.finish_chained().0
    }

    /// The finished record and its chain value — `fnv` of the whole
    /// record, which is the checksum's running state continued over the
    /// eight checksum bytes, so the record is hashed once, not twice.
    pub(crate) fn finish_chained(mut self) -> (Vec<u8>, u64) {
        let sum = fnv(&self.buf);
        self.u64(sum);
        (self.buf, fnv_from(sum, &sum.to_le_bytes()))
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
    /// [`Writer::finish_chained`]) from the one checksum pass.
    pub(crate) fn open_chained(buf: &'a [u8], kind: u8) -> Result<(Self, u64), PersistError> {
        if buf.len() < ENVELOPE || &buf[..4] != MAGIC {
            return Err(PersistError::NotAnArtifact);
        }
        let version = u32::from_le_bytes(
            buf[4..8]
                .try_into()
                .map_err(|_| PersistError::NotAnArtifact)?,
        );
        if version != VERSION {
            return Err(PersistError::VersionMismatch { found: version });
        }
        let body_end = buf.len() - 8;
        let stored = u64::from_le_bytes(
            buf[body_end..]
                .try_into()
                .map_err(|_| PersistError::Corrupt)?,
        );
        if fnv(&buf[..body_end]) != stored {
            return Err(PersistError::Corrupt);
        }
        if buf[8] != kind {
            return Err(PersistError::WrongKind);
        }
        let reader = Reader {
            buf: &buf[..body_end],
            pos: 9,
        };
        Ok((reader, fnv_from(stored, &buf[body_end..])))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, PersistError> {
        let end = self.pos.checked_add(8).ok_or(PersistError::Corrupt)?;
        let bytes = self.buf.get(self.pos..end).ok_or(PersistError::Corrupt)?;
        self.pos = end;
        Ok(u64::from_le_bytes(
            bytes.try_into().map_err(|_| PersistError::Corrupt)?,
        ))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, PersistError> {
        let end = self.pos.checked_add(4).ok_or(PersistError::Corrupt)?;
        let bytes = self.buf.get(self.pos..end).ok_or(PersistError::Corrupt)?;
        self.pos = end;
        Ok(u32::from_le_bytes(
            bytes.try_into().map_err(|_| PersistError::Corrupt)?,
        ))
    }

    /// Read `len` raw bytes (length-prefixed blobs on the distributed
    /// wire).
    pub(crate) fn raw(&mut self, len: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(len).ok_or(PersistError::Corrupt)?;
        let bytes = self.buf.get(self.pos..end).ok_or(PersistError::Corrupt)?;
        self.pos = end;
        Ok(bytes)
    }

    /// Remaining unread bytes of the payload (sanity caps for
    /// corrupted length fields).
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn edges(&mut self) -> Result<Vec<(u32, u32)>, PersistError> {
        let n = self.u64()? as usize;
        // Sanity cap against corrupted lengths.
        if n > self.buf.len() / 8 + 1 {
            return Err(PersistError::Corrupt);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let a = self.u32()?;
            let b = self.u32()?;
            v.push((a, b));
        }
        Ok(v)
    }

    pub(crate) fn done(&self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PersistError::Corrupt)
        }
    }
}

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
        let num_levels = r.u64()? as usize;
        if num_levels > bytes.len() {
            return Err(PersistError::Corrupt);
        }
        let mut levels = Vec::with_capacity(num_levels);
        for _ in 0..num_levels {
            let len = r.u64()? as usize;
            if len > bytes.len() {
                return Err(PersistError::Corrupt);
            }
            let mut level = Vec::with_capacity(len);
            for _ in 0..len {
                level.push(r.u32()?);
            }
            levels.push(level);
        }
        r.done()?;
        Ok(WavefrontSchedule::from_levels(levels))
    }
}

/// Exhaustive decode-hardening harness: decoding **every** prefix
/// truncation (0..len bytes) and **every** single-byte corruption (all
/// 255 non-identity values at every offset) of a valid artifact must
/// return an error — never panic, and never succeed on mangled input.
/// Shared by the artifact tests below and the journal-record tests.
#[cfg(test)]
pub(crate) fn assert_decode_hardened<T, E: std::fmt::Debug>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    assert!(decode(bytes).is_ok(), "harness needs a valid artifact");
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::EdgeKind;

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
        assert_decode_hardened(&graph().to_bytes(), DepGraph::from_bytes);
    }

    #[test]
    fn schedule_decoding_survives_every_truncation_and_corruption() {
        let s = WavefrontSchedule::from_graph(&graph());
        assert_decode_hardened(&s.to_bytes(), WavefrontSchedule::from_bytes);
    }

    #[test]
    fn chain_from_the_checksum_state_is_the_hash_of_the_whole_record() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x52_4c50);
        for _ in 0..1000 {
            let len = rng.random_range(0usize..600);
            let mut w = Writer::with_payload(KIND_JOURNAL_COMMIT, len);
            for _ in 0..len {
                w.raw(&[rng.random_range(0u8..=255)]);
            }
            let (record, chain) = w.finish_chained();
            assert_eq!(chain, fnv(&record), "writer chain, {len}-byte payload");
            let (_, read_chain) = Reader::open_chained(&record, KIND_JOURNAL_COMMIT).unwrap();
            assert_eq!(read_chain, chain, "reader chain, {len}-byte payload");
        }
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
