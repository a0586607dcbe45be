//! The record envelope every artifact, journal record and wire frame
//! shares, and the one reader and writer of payloads.
//!
//! The paper reuses a wavefront schedule "throughout the remainder of
//! the program execution"; persisting it carries that reuse across
//! *process* lifetimes. The same small, versioned, self-describing
//! binary format carries the crash journal, the worker wire and the
//! daemon's frames (all integers little-endian):
//!
//! ```text
//! magic "RLPD" | u32 version | u8 kind | payload … | u64 checksum
//! ```
//!
//! What a payload holds is declared once per record kind (`schema`):
//! encoder, decoder, encoded length and list bounds all come from it.
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
//! A count a record declares is outside input: the checksum is not a
//! MAC, so whoever writes the bytes can reseal them. The rule is stated
//! once, in [`Reader::list`]: *`count` elements of at least
//! `min_elem_bytes` encoded bytes each must fit in what is left of the
//! payload, checked before anything is allocated* — so a count never
//! reserves more than a small multiple (an element's size in memory over
//! its encoded minimum, at most 3) of the bytes present. [`Reader::blob`]
//! is the same rule at one byte per element. The minimum is the encoded
//! minimum of the element's declaration, never a number beside the reads.

const MAGIC: &[u8; 4] = b"RLPD";
/// The envelope version every writer seals: [`checksum`].
const VERSION: u32 = 2;
/// The envelope version sealed with FNV-1a, read and never written.
const VERSION_FNV: u32 = 1;
/// Bytes of framing around a payload: magic, version, kind, checksum.
const ENVELOPE: usize = 4 + 4 + 1 + 8;
// The record kinds: the kind byte each record's declaration names. Kind
// 1 was a persisted dependence graph; it is retired, and no record may
// take it again. A hello and its ack share kind 5.
pub(crate) const KIND_SCHEDULE: u8 = 2;
pub(crate) const KIND_JOURNAL_HEADER: u8 = 3;
pub(crate) const KIND_JOURNAL_COMMIT: u8 = 4;
pub(crate) const KIND_DIST_HELLO: u8 = 5;
pub(crate) const KIND_DIST_REQUEST: u8 = 6;
pub(crate) const KIND_DIST_REPLY: u8 = 7;
pub(crate) const KIND_DIST_HEARTBEAT: u8 = 8;
pub(crate) const KIND_DIST_SHUTDOWN: u8 = 9;
pub(crate) const KIND_SERVE_SUBMIT: u8 = 10;
pub(crate) const KIND_SERVE_DECISION: u8 = 11;
pub(crate) const KIND_SERVE_STATUS: u8 = 12;
pub(crate) const KIND_SERVE_SUMMARY: u8 = 13;
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

    /// `u64 len | bytes`: what [`Reader::blob`] reads back.
    pub(crate) fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// The finished record and its chain value ([`chain_of`] its
    /// checksum: the record is hashed once).
    pub(crate) fn finish(mut self) -> (Vec<u8>, u64) {
        let sum = checksum(&self.buf);
        self.u64(sum);
        (self.buf, chain_of(sum))
    }
}

#[derive(Clone)]
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader of the payload of `buf`, a record of kind `kind`, and
    /// the record's chain value (see [`Writer::finish`]) from the one
    /// checksum pass. A record is verified and chained by the version it
    /// carries.
    pub(crate) fn open(buf: &'a [u8], kind: u8) -> Result<(Self, u64), PersistError> {
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

    /// A reader of `buf`'s payload if it is framed as a record of kind
    /// `kind`, its checksum *not* verified: for a peek at a record that
    /// was verified where it came from.
    pub(crate) fn unverified(buf: &'a [u8], kind: u8) -> Option<Self> {
        let (body, _) = envelope(buf).ok()?;
        (buf[8] == kind).then_some(Reader { buf: body, pos: 9 })
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

    /// The next `u64`, left unread.
    pub(crate) fn peek_u64(&self) -> Result<u64, PersistError> {
        self.clone().u64()
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

/// Exhaustive decode-hardening harness, in two sweeps over a valid
/// artifact. **Stale**: every prefix truncation (0..len bytes) and every
/// single-byte corruption (all 255 non-identity values at every offset)
/// must return an error — that is the checksum's job. **Resealed**: the
/// checksum is not a MAC, so the same truncations and corruptions of
/// everything in front of it are made again with the checksum
/// recomputed, which is what reaches a decoder's own field checks; each
/// must decode to an error or to a value that `encode` turns back into
/// the mutant byte for byte (a decoder accepts one spelling of a value),
/// and none may panic. Called once, by the sweep over the record table
/// (`every_record_survives_the_decode_sweep`).
#[cfg(test)]
pub(crate) fn assert_decode_hardened<T, E: std::fmt::Debug>(
    name: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let valid = decode(bytes).expect("harness needs a valid artifact");
    assert!(
        encode(&valid) == bytes,
        "{name}: the artifact does not round-trip"
    );
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "{name}: truncation to {cut} of {} bytes decoded successfully",
            bytes.len()
        );
    }
    let mut mangled = bytes.to_vec();
    for pos in 0..bytes.len() {
        for flip in 1..=255u8 {
            mangled[pos] = bytes[pos] ^ flip;
            assert!(
                decode(&mangled).is_err(),
                "{name}: corrupting byte {pos} with ^{flip:#04x} decoded successfully"
            );
        }
        mangled[pos] = bytes[pos];
    }

    // A mutant resealed with anything but the checksum the reader checks
    // would stop at the envelope like a stale one, and the sweep would
    // pass without reaching a single field check: every payload mutant
    // must get past the envelope to its decoder.
    let body = &bytes[..bytes.len() - 8];
    let kind = bytes[8];
    let resealed = |body: &[u8], what: std::fmt::Arguments<'_>| {
        let mut mutant = body.to_vec();
        mutant.extend_from_slice(&[0; 8]);
        reseal(&mut mutant);
        let past_envelope = Reader::open(&mutant, kind).is_ok();
        if let Ok(value) = decode(&mutant) {
            assert!(
                encode(&value) == mutant,
                "{name}: resealed, {what} decoded to a value that encodes differently"
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
                "{name}: resealed, payload byte {pos} ^{flip:#04x} stopped at the envelope"
            );
        }
        mangled[pos] = body[pos];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddg::{DepGraph, EdgeKind};
    use crate::schema::{Str, Wire};
    use crate::wavefront::WavefrontSchedule;
    use proptest::prelude::*;

    fn graph() -> DepGraph {
        DepGraph {
            n: 9,
            flow: vec![(0, 3), (1, 3), (3, 8)],
            anti: vec![(2, 5)],
            output: vec![(0, 8)],
        }
    }

    fn schedule() -> WavefrontSchedule {
        WavefrontSchedule::from_graph(&graph())
    }

    #[test]
    fn schedule_round_trips_and_stays_valid() {
        let g = graph();
        let s = schedule();
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
    fn corruption_truncation_a_wrong_kind_and_a_wrong_magic_are_refused() {
        let bytes = schedule().to_bytes();
        let mut flipped = bytes.clone();
        flipped[bytes.len() / 2] ^= 0xff;
        let decode = WavefrontSchedule::from_bytes;
        assert_eq!(decode(&flipped).err(), Some(PersistError::Corrupt));
        for cut in [0usize, 3, 8, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let heartbeat = crate::remote::encode_heartbeat(1);
        assert_eq!(decode(&heartbeat).err(), Some(PersistError::WrongKind));
        assert_eq!(decode(b"NOPEnope").err(), Some(PersistError::NotAnArtifact));
    }

    /// Decode a record and encode what it decoded to.
    type Reencode = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, PersistError>>;

    /// One row of the record table: a name, a record's bytes, and how to
    /// decode them and encode what they decoded to.
    struct Sample {
        name: String,
        bytes: Vec<u8>,
        reencode: Reencode,
    }

    fn sample<T: 'static>(
        name: impl Into<String>,
        value: &T,
        encode: impl Fn(&T) -> Vec<u8> + 'static,
        decode: impl Fn(&[u8]) -> Result<T, PersistError> + 'static,
    ) -> Sample {
        Sample {
            name: name.into(),
            bytes: encode(value),
            reencode: Box::new(move |bytes| decode(bytes).map(|v| encode(&v))),
        }
    }

    /// Every record kind, and every variant of one: the table
    /// `tests/data/record_fingerprints.txt` pins and the decode sweep
    /// walks.
    fn samples() -> Vec<Sample> {
        use crate::journal::{elem_fingerprint, CommitRecord, JournalHeader, CHAIN_SEED};
        use crate::remote::*;
        let mut out = Vec::new();

        out.push(sample(
            "schedule",
            &schedule(),
            WavefrontSchedule::to_bytes,
            WavefrontSchedule::from_bytes,
        ));

        let header = JournalHeader {
            n: 128,
            p: 4,
            strategy_hash: 0x1111,
            elem_hash: elem_fingerprint::<f64>(),
            arrays: vec![(64, true), (16, false)],
        };
        let (header_bytes, chain) = header.encode(CHAIN_SEED);
        out.push(sample(
            "journal_header",
            &header,
            |h| h.encode(CHAIN_SEED).0,
            |b| JournalHeader::decode(b, CHAIN_SEED).map(|(h, _)| h),
        ));
        let commit = CommitRecord {
            stage: 3,
            frontier: 78,
            exited_at: None,
            fallback: false,
            arrays: vec![(0, vec![(1, 42), (5, 7)]), (2, vec![(0, 1.5f64.to_bits())])],
        };
        for (name, exited_at, fallback, arrays) in [
            ("plain", None, false, commit.arrays.clone()),
            ("exited", Some(77), false, commit.arrays.clone()),
            ("fallback", None, true, commit.arrays.clone()),
            ("exited_fallback_empty", Some(0), true, Vec::new()),
        ] {
            let rec = CommitRecord {
                exited_at,
                fallback,
                arrays,
                ..commit.clone()
            };
            out.push(sample(
                format!("commit_record/{name}"),
                &rec,
                move |c| c.encode(chain).0,
                move |b| CommitRecord::decode(b, chain).map(|(c, _)| c),
            ));
        }

        let hello = WireHello {
            protocol: PROTOCOL_VERSION,
            run_id: 0x1234_0000_0042,
            heartbeat_millis: 25,
            shadow_budget: 4 << 20,
            header: header_bytes,
            spec: "rlp:A[i] = A[i - 1] + ε;".into(),
        };
        out.push(sample(
            "wire_hello",
            &hello,
            WireHello::encode,
            WireHello::decode,
        ));
        let ack = HelloAck {
            protocol: PROTOCOL_VERSION,
            run_id: 0x1234_0000_0042,
            header_chain: chain,
        };
        out.push(sample(
            "hello_ack",
            &ack,
            HelloAck::encode,
            HelloAck::decode,
        ));

        let req = BlockRequest {
            chain: 0xdead_beef_1234_5678,
            stage: 7,
            pos: 3,
            start: 100,
            end: 164,
        };
        for (name, fault) in [
            ("none", FAULT_NONE),
            ("kill", FAULT_KILL),
            ("hang", FAULT_HANG),
            ("corrupt", FAULT_CORRUPT),
        ] {
            out.push(sample(
                format!("block_request/{name}"),
                &(req, fault),
                |(req, fault)| req.encode(*fault),
                BlockRequest::decode,
            ));
        }

        let top = u32::MAX - 64;
        let full = BlockReply {
            chain: 42,
            pos: 1,
            exit_iter: Some(17),
            fault: Some((23, "boom: index out of range".into())),
            tested: vec![
                SlotReply {
                    refs: 9,
                    touched: vec![
                        (0, MARK_EXPOSED, 0),
                        (3, MARK_WRITE, 4.5f64.to_bits()),
                        (4, MARK_WRITE_EXPOSED, 1.0f64.to_bits()),
                    ],
                },
                SlotReply {
                    refs: 2,
                    touched: vec![(1, MARK_REDUCTION, 2.25f64.to_bits())],
                },
            ],
            untested: vec![vec![(5, 8.0f64.to_bits()), (6, 9.0f64.to_bits())], vec![]],
            iter_costs: [(top, 1.0), (top + 1, 2.5)].into_iter().collect(),
            shadow_bytes: 12_288,
        };
        for (name, reply) in [
            ("empty", BlockReply::default()),
            ("full", full.clone()),
            (
                "exit_only",
                BlockReply {
                    fault: None,
                    ..full.clone()
                },
            ),
            (
                "fault_only",
                BlockReply {
                    exit_iter: None,
                    ..full.clone()
                },
            ),
            (
                "runs",
                BlockReply {
                    exit_iter: None,
                    fault: None,
                    untested: Vec::new(),
                    iter_costs: [(0, 1.0), (1, 1.0), (2, 2.5), (3, 2.5), (9, 2.5), (10, 1.0)]
                        .into_iter()
                        .map(|(i, c)| (top + i, c))
                        .collect(),
                    ..full.clone()
                },
            ),
        ] {
            out.push(sample(
                format!("block_reply/{name}"),
                &reply,
                BlockReply::encode,
                BlockReply::decode,
            ));
        }

        out.push(sample(
            "heartbeat",
            &3u64,
            |&seq| encode_heartbeat(seq),
            |b| crate::schema::decode::<u64>(KIND_DIST_HEARTBEAT, b),
        ));
        out.push(sample(
            "shutdown",
            &(),
            |()| encode_shutdown(),
            |b| crate::schema::decode::<()>(KIND_DIST_SHUTDOWN, b),
        ));

        let spec = JobSpec {
            protocol: SERVE_PROTOCOL_VERSION,
            key: 0xA_0000_0007,
            spec: "rlp:A[i] = A[i - 1] + ε;".into(),
            p: 4,
            strategy: "sw:64".into(),
            budget_bytes: 1 << 20,
            fault_seed: 3,
            shadow_fault: "0:64K".into(),
            max_stages: 9,
        };
        out.push(sample("job_spec", &spec, JobSpec::encode, JobSpec::decode));
        for (name, decision) in [
            ("accepted", JobDecision::Accepted),
            ("queued", JobDecision::Queued),
            ("attached", JobDecision::Attached),
            (
                "over_pool",
                JobDecision::Rejected(RejectReason::OverPool {
                    requested: 2 << 20,
                    pool: 1 << 20,
                }),
            ),
            (
                "key_conflict",
                JobDecision::Rejected(RejectReason::KeyConflict),
            ),
            (
                "bad_spec",
                JobDecision::Rejected(RejectReason::BadSpec("no such deck".into())),
            ),
            ("draining", JobDecision::Rejected(RejectReason::Draining)),
            (
                "protocol_mismatch",
                JobDecision::Rejected(RejectReason::ProtocolMismatch { server: 7 }),
            ),
        ] {
            out.push(sample(
                format!("job_decision/{name}"),
                &decision,
                JobDecision::encode,
                JobDecision::decode,
            ));
        }
        for (name, state) in [
            ("queued", JobState::Queued),
            ("running", JobState::Running),
            ("paused", JobState::Paused),
            ("done", JobState::Done),
            ("failed", JobState::Failed),
            ("unknown", JobState::Unknown),
        ] {
            let status = JobStatusFrame {
                key: 0xB_0000_0001,
                state,
                exit_code: 3,
                verified: state == JobState::Done,
                frontier: 4096,
                report_json: "{\"stages\":7}".into(),
                message: "stage limit".into(),
            };
            out.push(sample(
                format!("job_status/{name}"),
                &status,
                JobStatusFrame::encode,
                JobStatusFrame::decode,
            ));
        }
        let summary = FrontierSummary {
            key: 0xC_0000_0001,
            frontier: 640,
            records: 11,
            dropped: 4,
        };
        out.push(sample(
            "frontier_summary",
            &summary,
            FrontierSummary::encode,
            FrontierSummary::decode,
        ));
        let query = StatusRequest {
            protocol: SERVE_PROTOCOL_VERSION,
            key: 0xC_0000_0001,
        };
        out.push(sample(
            "status_request",
            &query,
            StatusRequest::encode,
            StatusRequest::decode,
        ));
        out
    }

    const RECORD_TABLE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/record_fingerprints.txt"
    );

    /// Not one byte of any record moves: each row is a record's length
    /// and the FNV-1a of its bytes, and what a record decodes to encodes
    /// back to it. A record kind without a row fails here.
    #[test]
    fn every_record_kind_keeps_its_bytes() {
        use std::fmt::Write as _;
        let samples = samples();
        let mut actual = String::new();
        for s in &samples {
            assert_eq!(
                (s.reencode)(&s.bytes).as_ref(),
                Ok(&s.bytes),
                "{}: decoding does not give back what encodes to it",
                s.name
            );
            writeln!(
                actual,
                "{} {} {:016x}",
                s.name,
                s.bytes.len(),
                fnv(&s.bytes)
            )
            .unwrap();
        }
        let kinds: std::collections::BTreeSet<u8> = samples.iter().map(|s| s.bytes[8]).collect();
        assert_eq!(
            kinds,
            (KIND_SCHEDULE..=KIND_SERVE_STATUS_REQ).collect(),
            "a record kind has no row"
        );
        let expected = std::fs::read_to_string(RECORD_TABLE).unwrap_or_default();
        assert!(
            actual == expected,
            "record bytes differ from {RECORD_TABLE}; this tree's table:\n{actual}"
        );
    }

    /// Every row of the record table, through [`assert_decode_hardened`].
    #[test]
    fn every_record_survives_the_decode_sweep() {
        for s in samples() {
            assert_decode_hardened(&s.name, &s.bytes, |b| (s.reencode)(b), Vec::clone);
        }
    }

    #[test]
    fn a_resealed_schedule_that_is_not_a_permutation_is_corrupt() {
        // Levels [[0, 1], [1]]: iteration 1 twice.
        let mut w = Writer::with_payload(KIND_SCHEDULE, 0);
        for v in [2u64, 2] {
            w.u64(v);
        }
        w.u32(0);
        w.u32(1);
        w.u64(1);
        w.u32(1);
        assert_eq!(
            WavefrontSchedule::from_bytes(&w.finish().0).map(|s| s.depth()),
            Err(PersistError::Corrupt)
        );
        // A valid schedule with its last iteration renamed 10⁹: every
        // iteration once, but not a schedule of 0..9 — which
        // `install_schedule` would have accepted, its only check being
        // the count.
        let mut mutant = schedule().to_bytes();
        let last = mutant.len() - 8 - 4;
        assert_eq!(mutant[last..last + 4], 8u32.to_le_bytes());
        mutant[last..last + 4].copy_from_slice(&1_000_000_000u32.to_le_bytes());
        reseal(&mut mutant);
        assert_eq!(
            WavefrontSchedule::from_bytes(&mutant).map(|s| s.num_iters()),
            Err(PersistError::Corrupt)
        );
    }

    /// The bound, at its one home: a count that cannot fit is refused
    /// before the element closure runs once or a byte is reserved.
    #[test]
    fn a_list_count_is_bounded_by_the_bytes_left_before_any_element_is_read() {
        let mut w = Writer::with_payload(KIND_SCHEDULE, 0);
        for k in 0..5u32 {
            w.u64(k as u64);
            w.u32(k);
        }
        let bytes = w.finish().0;
        let triple = |r: &mut Reader<'_>| Ok((r.u64()?, r.u32()?));
        for (count, fits) in [(5, true), (6, false), (u64::MAX, false), (0, true)] {
            let mut r = Reader::open(&bytes, KIND_SCHEDULE).unwrap().0;
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
        let mut r = Reader::open(&bytes, KIND_SCHEDULE).unwrap().0;
        assert_eq!(r.list(6, 8, triple), Err(PersistError::Corrupt));

        let mut w = Writer::with_payload(KIND_SCHEDULE, 0);
        w.blob(b"caf\xc3\xa9");
        w.u64(u64::MAX); // a declared length past the payload
        let bytes = w.finish().0;
        let mut r = Reader::open(&bytes, KIND_SCHEDULE).unwrap().0;
        assert_eq!(Str::get(&mut r).as_deref(), Ok("café"));
        assert_eq!(r.blob(), Err(PersistError::Corrupt));
        let mut w = Writer::with_payload(KIND_SCHEDULE, 0);
        w.blob(&[0xff, 0xfe]);
        let bytes = w.finish().0;
        let mut r = Reader::open(&bytes, KIND_SCHEDULE).unwrap().0;
        assert_eq!(Str::get(&mut r), Err(PersistError::Corrupt), "not UTF-8");
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
            let (record, chain) = w.finish();
            let stored = word(&record[record.len() - 8..]);
            assert_eq!(chain, chain_of(stored), "writer chain, {len}-byte payload");
            assert_eq!(record_chain(&record), Some(chain));
            let (r, read_chain) = Reader::open(&record, KIND_JOURNAL_COMMIT).unwrap();
            assert_eq!(read_chain, chain, "reader chain, {len}-byte payload");
            let payload = r.buf[9..].to_vec();

            let old = as_v1(&record);
            let (r, old_chain) = Reader::open(&old, KIND_JOURNAL_COMMIT).unwrap();
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
            let record = w.finish().0;
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
        let s = schedule();
        let old = as_v1(&s.to_bytes());
        let decode = |bytes: &[u8]| WavefrontSchedule::from_bytes(bytes).map(|s| s.to_bytes());
        assert_eq!(decode(&old), Ok(s.to_bytes()));
        let mut stale = old.clone();
        stale[12] ^= 1;
        assert_eq!(decode(&stale), Err(PersistError::Corrupt));
        // A version-2 seal under a version-1 label, and the reverse.
        let mut relabelled = s.to_bytes();
        relabelled[4] = 1;
        assert_eq!(decode(&relabelled), Err(PersistError::Corrupt));
        let mut relabelled = old;
        relabelled[4] = 2;
        assert_eq!(decode(&relabelled), Err(PersistError::Corrupt));
        for found in [0u32, 3, u32::MAX] {
            let mut future = s.to_bytes();
            future[4..8].copy_from_slice(&found.to_le_bytes());
            reseal(&mut future);
            assert_eq!(
                decode(&future),
                Err(PersistError::VersionMismatch { found })
            );
            assert_eq!(record_chain(&future), None);
        }
    }
}
