//! The crash-durable run journal: checkpoint, verify, and resume
//! speculative runs across process death.
//!
//! The R-LRPD guarantee (paper §2.3) is that everything at or below the
//! commit frontier is permanently correct — this module makes
//! "permanently" survive the process. At every stage commit point the
//! driver appends one self-describing record to an append-only journal
//! file; after a SIGKILL, OOM-kill, or reboot, [`crate::Runner::resume`]
//! replays the valid prefix, reconstructs the shared arrays exactly as
//! they stood at the last commit point, and continues speculation from
//! the frontier. Final arrays are byte-identical to an uninterrupted
//! run.
//!
//! ## On-disk format
//!
//! A journal is a sequence of *frames*:
//!
//! ```text
//! u32 len | record bytes (len of them) | u32 len | record bytes | …
//! ```
//!
//! Each record reuses the [`crate::persist`] artifact framing
//! (`magic "RLPD" | u32 version | u8 kind | payload | u64 fnv`), so a
//! journal record is independently self-describing and checksummed.
//! Record 0 is the **header** (`KIND_JOURNAL_HEADER`): loop shape,
//! array layout, element type, and strategy fingerprints. Every further
//! record is a **commit record** (`KIND_JOURNAL_COMMIT`): the commit
//! frontier after one stage plus the committed deltas — the `(element,
//! value)` pairs the stage's commit/untested writes changed in shared
//! storage, O(touched) via the checkpoint write-logs, *not* O(array).
//!
//! Every payload starts with a **chained hash**: the FNV of the
//! previous record's full bytes ([`CHAIN_SEED`] for the header). The
//! chain makes records order- and identity-bound: a record spliced from
//! another journal, a reordered record, or a record following a torn
//! write is rejected even though its own checksum passes.
//!
//! ## Torn-write recovery
//!
//! Appends are write-ahead: the frame is written and fsynced *before*
//! the in-memory run advances past the commit point. A crash can
//! therefore leave at most a torn or missing suffix. [`Journal::open`]
//! scans frames from the start, validating length, framing, checksum,
//! kind, and chain; at the first invalid byte it **truncates the file**
//! to the end of the last valid record (an atomic `set_len` + fsync) and
//! resumes from there. Corruption in the middle of the file truncates
//! everything from the corrupt record on — the recovered prefix is
//! always a consistent run prefix.

use crate::buf::SharedBuf;
use crate::persist::{fnv, PersistError, Reader, Writer, KIND_JOURNAL_COMMIT, KIND_JOURNAL_HEADER};
use crate::value::Value;
use rlrpd_runtime::FaultPlan;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::Arc;

/// Chain seed of record 0 (no previous record to hash). Shared with the
/// distributed wire protocol ([`crate::remote`]), which replays the
/// exact same record chain over worker pipes.
pub(crate) const CHAIN_SEED: u64 = 0x524c_5250_444a_4e4c; // "RLRPDJNL"

/// Bounded transient-errno (`EINTR`/`EAGAIN`) retries absorbed per
/// journal frame before the failure surfaces.
const TRANSIENT_RETRIES: u32 = 8;

/// Sentinel for "no premature exit" in the on-disk flags.
const NO_EXIT: u64 = u64::MAX;

/// Flag bit: the run exited prematurely at `exited_at`.
const FLAG_EXITED: u32 = 1;
/// Flag bit: this record was written by the sequential fallback and
/// holds the *full* final state (fallback writes are not delta-tracked).
const FLAG_FALLBACK: u32 = 2;

/// Errors from creating, opening, or appending to a journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// An I/O operation on the journal file failed.
    Io {
        /// Rendered `std::io::Error`.
        message: String,
    },
    /// The file holds no valid header record — it is not a journal, or
    /// its header itself was torn/corrupted (nothing can be recovered).
    NoHeader,
    /// The journal was recorded by an incompatible run: different loop
    /// shape, array layout, element type, or strategy.
    Mismatch {
        /// What differed.
        message: String,
    },
    /// A fresh journaled run requires an empty journal; this one
    /// already holds records (resume instead, or use a new path).
    NotEmpty,
    /// An injected I/O fault fired ([`FaultPlan::short_write_at`] /
    /// [`FaultPlan::fsync_fail_at`]); the run aborts as a crash would.
    Injected {
        /// Journal record ordinal the fault fired at.
        record: usize,
        /// Which operation was injected.
        op: &'static str,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { message } => write!(f, "journal I/O error: {message}"),
            JournalError::NoHeader => write!(f, "no valid journal header"),
            JournalError::Mismatch { message } => {
                write!(f, "journal does not match this run: {message}")
            }
            JournalError::NotEmpty => write!(f, "journal already holds records"),
            JournalError::Injected { record, op } => {
                write!(f, "injected {op} fault at journal record {record}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io {
            message: e.to_string(),
        }
    }
}

/// An element type that can ride in a journal: a lossless 64-bit image
/// plus a stable type tag (validated on resume, so a journal recorded
/// over `f64` arrays cannot silently replay into `i64` arrays).
pub trait JournalElem: Copy {
    /// Stable type tag stored (hashed) in the journal header.
    const TAG: &'static str;
    /// Lossless 64-bit image of the value.
    fn to_bits(self) -> u64;
    /// Inverse of [`JournalElem::to_bits`].
    fn from_bits(bits: u64) -> Self;
}

macro_rules! journal_elem_int {
    ($($t:ty => $tag:literal),* $(,)?) => {$(
        impl JournalElem for $t {
            const TAG: &'static str = $tag;
            fn to_bits(self) -> u64 {
                self as u64
            }
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}

journal_elem_int!(i64 => "i64", u64 => "u64", i32 => "i32", u32 => "u32");

impl JournalElem for f64 {
    const TAG: &'static str = "f64";
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl JournalElem for f32 {
    const TAG: &'static str = "f32";
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

/// The journal's header record: everything resume needs to check that
/// the journal belongs to this (loop, configuration) pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Iteration count of the journaled loop.
    pub n: usize,
    /// Virtual processor count of the journaled run.
    pub p: usize,
    /// FNV fingerprint of the canonical strategy description.
    pub strategy_hash: u64,
    /// FNV fingerprint of [`JournalElem::TAG`].
    pub elem_hash: u64,
    /// Per declared array, in declaration order: `(size, is_tested)`.
    pub arrays: Vec<(u64, bool)>,
}

impl JournalHeader {
    /// Why a journal recorded under `recorded` cannot resume the run
    /// this header describes: the first field that differs.
    pub(crate) fn mismatch(&self, recorded: &JournalHeader) -> String {
        if recorded.n != self.n {
            format!("iteration count {} != {}", recorded.n, self.n)
        } else if recorded.p != self.p {
            format!("processor count {} != {}", recorded.p, self.p)
        } else if recorded.strategy_hash != self.strategy_hash {
            "strategy fingerprint differs".into()
        } else if recorded.elem_hash != self.elem_hash {
            "element type differs".into()
        } else {
            "array layout differs".into()
        }
    }

    /// Record bytes chained onto `prev_chain` (also the wire image of
    /// the distributed Hello payload), and the chain value after them.
    pub(crate) fn encode(&self, prev_chain: u64) -> (Vec<u8>, u64) {
        let mut w = Writer::new(KIND_JOURNAL_HEADER);
        w.u64(prev_chain);
        w.u64(self.n as u64);
        w.u32(self.p as u32);
        w.u64(self.strategy_hash);
        w.u64(self.elem_hash);
        w.u32(self.arrays.len() as u32);
        for &(size, tested) in &self.arrays {
            w.u64(size);
            w.u32(tested as u32);
        }
        w.finish_chained()
    }

    /// The header in `bytes`, if they chain onto `prev_chain`, and the
    /// chain value after them.
    pub(crate) fn decode(bytes: &[u8], prev_chain: u64) -> Result<(Self, u64), PersistError> {
        let (mut r, chain) = Reader::open_chained(bytes, KIND_JOURNAL_HEADER)?;
        if r.u64()? != prev_chain {
            return Err(PersistError::Corrupt);
        }
        let n = r.u64()? as usize;
        let p = r.u32()? as usize;
        let strategy_hash = r.u64()?;
        let elem_hash = r.u64()?;
        let num_arrays = r.u32()? as usize;
        if num_arrays > r.remaining() {
            return Err(PersistError::Corrupt);
        }
        let mut arrays = Vec::with_capacity(num_arrays);
        for _ in 0..num_arrays {
            let size = r.u64()?;
            let tested = match r.u32()? {
                0 => false,
                1 => true,
                _ => return Err(PersistError::Corrupt),
            };
            arrays.push((size, tested));
        }
        r.done()?;
        let header = JournalHeader {
            n,
            p,
            strategy_hash,
            elem_hash,
            arrays,
        };
        Ok((header, chain))
    }
}

/// One stage's commit record: the frontier it advanced to and the
/// `(element, value)` pairs its commit changed in shared storage.
///
/// Values are stored as [`JournalElem::to_bits`] images, so the record
/// type is element-type-erased; the header's `elem_hash` binds the
/// interpretation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Commit ordinal (0-based over the journal, fallback included).
    pub stage: usize,
    /// First uncommitted iteration after this stage (== `n` when the
    /// run is complete).
    pub frontier: usize,
    /// Last executed iteration of a trusted premature exit, if any
    /// (the run is complete).
    pub exited_at: Option<usize>,
    /// True when the sequential fallback wrote this record; its deltas
    /// hold the full final state, and the run is complete.
    pub fallback: bool,
    /// Per touched array, in declaration-id order:
    /// `(array id, sorted (element, value bits) pairs)`.
    pub arrays: Vec<(u32, Vec<(u32, u64)>)>,
}

impl CommitRecord {
    /// Does this record complete the run (nothing left to execute)?
    pub fn completes(&self, n: usize) -> bool {
        self.frontier >= n || self.exited_at.is_some() || self.fallback
    }

    /// Land this record on `arrays` (declaration order), rebuilding
    /// values with `from_bits` — the one way a commit record reaches
    /// shared storage, whether it arrived from a journal being resumed
    /// or from the supervisor's broadcast. A record is outside input on
    /// both paths: an array it names that `arrays` does not have, or an
    /// element at or past that array's length, is refused with the
    /// reason (elements before it are already written; both callers
    /// abandon the arrays on an error).
    pub(crate) fn apply<T: Value>(
        &self,
        arrays: &mut [SharedBuf<T>],
        from_bits: fn(u64) -> T,
    ) -> Result<(), String> {
        let declared = arrays.len();
        for (id, elems) in &self.arrays {
            let slice = arrays
                .get_mut(*id as usize)
                .ok_or_else(|| format!("names array {id}, the loop declares {declared}"))?
                .as_mut_slice();
            let len = slice.len();
            for &(elem, bits) in elems {
                *slice.get_mut(elem as usize).ok_or_else(|| {
                    format!("names element {elem} of array {id}, which holds {len}")
                })? = from_bits(bits);
            }
        }
        Ok(())
    }

    /// Record bytes chained onto `prev_chain` (also the wire image of a
    /// distributed commit broadcast), and the chain value after them.
    pub(crate) fn encode(&self, prev_chain: u64) -> (Vec<u8>, u64) {
        let payload = 36
            + self
                .arrays
                .iter()
                .map(|(_, elems)| 12 + 12 * elems.len())
                .sum::<usize>();
        let mut w = Writer::with_payload(KIND_JOURNAL_COMMIT, payload);
        w.u64(prev_chain);
        w.u64(self.frontier as u64);
        w.u32(self.stage as u32);
        let mut flags = 0u32;
        if self.exited_at.is_some() {
            flags |= FLAG_EXITED;
        }
        if self.fallback {
            flags |= FLAG_FALLBACK;
        }
        w.u32(flags);
        w.u64(self.exited_at.map_or(NO_EXIT, |e| e as u64));
        w.u32(self.arrays.len() as u32);
        for (id, elems) in &self.arrays {
            w.u32(*id);
            w.u64(elems.len() as u64);
            for &(elem, bits) in elems {
                w.u32(elem);
                w.u64(bits);
            }
        }
        w.finish_chained()
    }

    /// The record in `bytes`, if they chain onto `prev_chain`, and the
    /// chain value after them.
    pub(crate) fn decode(bytes: &[u8], prev_chain: u64) -> Result<(Self, u64), PersistError> {
        let (mut r, chain) = Reader::open_chained(bytes, KIND_JOURNAL_COMMIT)?;
        if r.u64()? != prev_chain {
            return Err(PersistError::Corrupt);
        }
        let frontier = r.u64()? as usize;
        let stage = r.u32()? as usize;
        let flags = r.u32()?;
        if flags & !(FLAG_EXITED | FLAG_FALLBACK) != 0 {
            return Err(PersistError::Corrupt);
        }
        let exit_raw = r.u64()?;
        let exited_at = if flags & FLAG_EXITED != 0 {
            if exit_raw == NO_EXIT {
                return Err(PersistError::Corrupt);
            }
            Some(exit_raw as usize)
        } else {
            if exit_raw != NO_EXIT {
                return Err(PersistError::Corrupt);
            }
            None
        };
        let fallback = flags & FLAG_FALLBACK != 0;
        let num_arrays = r.u32()? as usize;
        if num_arrays > r.remaining() {
            return Err(PersistError::Corrupt);
        }
        let mut arrays = Vec::with_capacity(num_arrays);
        for _ in 0..num_arrays {
            let id = r.u32()?;
            let count = r.u64()? as usize;
            if count > r.remaining() / 12 + 1 {
                return Err(PersistError::Corrupt);
            }
            let mut elems = Vec::with_capacity(count);
            let mut prev: Option<u32> = None;
            for _ in 0..count {
                let elem = r.u32()?;
                // Elements are written sorted; a disordered list is
                // corruption, and rejecting it keeps replay canonical.
                if prev.is_some_and(|p| p >= elem) {
                    return Err(PersistError::Corrupt);
                }
                prev = Some(elem);
                elems.push((elem, r.u64()?));
            }
            arrays.push((id, elems));
        }
        r.done()?;
        let record = CommitRecord {
            stage,
            frontier,
            exited_at,
            fallback,
            arrays,
        };
        Ok((record, chain))
    }
}

/// The boxed callback inside a [`FrameObserver`].
type FrameFn = Box<dyn FnMut(&[u8]) + Send>;

/// A live tap on the journal's append stream: called with the exact
/// frame bytes (`u32 len | record`) after each durable append. The
/// daemon uses this to fan journal frames out to subscribed clients —
/// the wire stream *is* the journal stream, byte for byte.
pub struct FrameObserver(FrameFn);

impl FrameObserver {
    /// Wrap a callback as a journal frame observer.
    pub fn new(f: impl FnMut(&[u8]) + Send + 'static) -> Self {
        FrameObserver(Box::new(f))
    }
}

impl std::fmt::Debug for FrameObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FrameObserver")
    }
}

/// A crash-durable run journal (see the module docs for format and
/// recovery semantics).
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// FNV of the last valid record's full bytes (CHAIN_SEED initially).
    chain: u64,
    /// Records in the file, header included (== ordinal of the next
    /// append).
    records: usize,
    header: Option<JournalHeader>,
    commits: Vec<CommitRecord>,
    /// Torn/corrupt bytes discarded by the last [`Journal::open`].
    truncated_bytes: u64,
    fault: Option<Arc<FaultPlan>>,
    observer: Option<FrameObserver>,
}

impl Journal {
    /// Create a fresh journal at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Journal {
            file,
            path,
            chain: CHAIN_SEED,
            records: 0,
            header: None,
            commits: Vec::new(),
            truncated_bytes: 0,
            fault: None,
            observer: None,
        })
    }

    /// Open an existing journal for resume: scan and validate every
    /// frame, truncate the torn/corrupt tail, and position for append.
    ///
    /// Returns [`JournalError::NoHeader`] when not even the header
    /// survives — the file is not a recoverable journal.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut pos = 0usize;
        let mut chain = CHAIN_SEED;
        let mut header = None;
        let mut commits = Vec::new();
        let mut records = 0usize;
        // Length-checked framing: every arithmetic step is guarded,
        // so no byte sequence — torn, corrupt, or adversarial — can
        // panic the scan. Any inconsistency ends the valid prefix.
        while let Some(end_of_len) = pos.checked_add(4).filter(|&e| e <= buf.len()) {
            let Ok(len_bytes) = <[u8; 4]>::try_from(&buf[pos..end_of_len]) else {
                break;
            };
            let len = u32::from_le_bytes(len_bytes) as usize;
            if len == 0 {
                break;
            }
            let Some(end) = end_of_len.checked_add(len).filter(|&e| e <= buf.len()) else {
                break; // torn frame
            };
            let rec = &buf[end_of_len..end];
            let decoded = if records == 0 {
                JournalHeader::decode(rec, chain).map(|(h, next)| {
                    header = Some(h);
                    next
                })
            } else {
                CommitRecord::decode(rec, chain).map(|(c, next)| {
                    commits.push(c);
                    next
                })
            };
            let Ok(next_chain) = decoded else {
                break; // corrupt record: the valid prefix ends here
            };
            chain = next_chain;
            records += 1;
            pos = end;
        }

        let truncated_bytes = (buf.len() - pos) as u64;
        if truncated_bytes > 0 {
            // Atomic tail truncation: everything at or past the first
            // invalid byte is discarded, then the cut is made durable.
            file.set_len(pos as u64)?;
            file.sync_data()?;
        }
        if header.is_none() {
            return Err(JournalError::NoHeader);
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok(Journal {
            file,
            path,
            chain,
            records,
            header,
            commits,
            truncated_bytes,
            fault: None,
            observer: None,
        })
    }

    /// Wire a deterministic I/O fault plan into this journal's appends
    /// (see [`FaultPlan::short_write_at`] and friends).
    pub fn set_fault(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault = plan.filter(|p| !p.is_empty());
    }

    /// Tap the append stream: `observer` runs with each frame's exact
    /// wire bytes after the append is durable (write-ahead ordering is
    /// preserved — subscribers never see a frame that could be lost to
    /// a crash).
    pub fn set_observer(&mut self, observer: Option<FrameObserver>) {
        self.observer = observer;
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when no record has been written or recovered.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Records in the journal, header included.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The recovered or written header.
    pub fn header(&self) -> Option<&JournalHeader> {
        self.header.as_ref()
    }

    /// The recovered or written commit records, in order.
    pub fn commits(&self) -> &[CommitRecord] {
        &self.commits
    }

    /// Torn/corrupt bytes discarded by [`Journal::open`] (0 for a clean
    /// file or a fresh journal).
    pub fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// Write the header record. Must be the first append.
    pub fn append_header(&mut self, header: &JournalHeader) -> Result<u64, JournalError> {
        if self.records != 0 {
            return Err(JournalError::NotEmpty);
        }
        let (bytes, next_chain) = header.encode(self.chain);
        let written = self.append_frame(&bytes, next_chain)?;
        self.header = Some(header.clone());
        Ok(written)
    }

    /// Append one stage's commit record (write-ahead: returns only
    /// after the bytes are fsynced). Returns the bytes appended.
    pub fn append_commit(&mut self, rec: CommitRecord) -> Result<u64, JournalError> {
        if self.records == 0 {
            return Err(JournalError::NoHeader);
        }
        let (bytes, next_chain) = rec.encode(self.chain);
        let written = self.append_frame(&bytes, next_chain)?;
        self.commits.push(rec);
        Ok(written)
    }

    /// Frame, fault-inject, write, and fsync one record; advance the
    /// chain to `next_chain` only on success.
    fn append_frame(&mut self, rec: &[u8], next_chain: u64) -> Result<u64, JournalError> {
        let ordinal = self.records;
        let mut frame = Vec::with_capacity(4 + rec.len());
        frame.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        frame.extend_from_slice(rec);

        if let Some(plan) = self.fault.clone() {
            if let Some(keep) = plan.io_short_write(ordinal) {
                // Torn append: a byte prefix lands, then the "crash".
                let keep = keep.min(frame.len());
                self.file.write_all(&frame[..keep])?;
                let _ = self.file.sync_data();
                return Err(JournalError::Injected {
                    record: ordinal,
                    op: "short write",
                });
            }
            if plan.io_corrupt(ordinal) {
                // Silent media corruption: the append *succeeds* (the
                // run continues normally) but the bytes on disk are
                // wrong — only the next open's validation catches it.
                // Observers see the *intended* bytes: the run's live
                // view is the logical record, not the damaged media.
                let mid = 4 + rec.len() / 2;
                let mut damaged = frame.clone();
                damaged[mid] ^= 0x01;
                self.file.write_all(&damaged)?;
                self.file.sync_data()?;
                self.chain = next_chain;
                self.records += 1;
                if let Some(obs) = self.observer.as_mut() {
                    (obs.0)(&frame);
                }
                return Ok(frame.len() as u64);
            }
            if plan.io_fsync_fail(ordinal) {
                // The write may have landed, but durability was never
                // confirmed: report the fault without advancing, as a
                // real fsync failure would.
                self.file.write_all(&frame)?;
                return Err(JournalError::Injected {
                    record: ordinal,
                    op: "fsync",
                });
            }
        }

        self.write_frame_with_retry(&frame, ordinal)?;
        self.chain = next_chain;
        self.records += 1;
        if let Some(obs) = self.observer.as_mut() {
            (obs.0)(&frame);
        }
        Ok(frame.len() as u64)
    }

    /// Write and fsync one frame, absorbing up to
    /// [`TRANSIENT_RETRIES`] transient errnos (`EINTR`/`EAGAIN`) per
    /// frame. Transient failures are retried from the exact byte they
    /// interrupted (never re-writing a landed prefix); anything else —
    /// or a transient streak longer than the bound — surfaces as
    /// [`JournalError::Io`].
    fn write_frame_with_retry(&mut self, frame: &[u8], ordinal: usize) -> Result<(), JournalError> {
        let mut transients = 0u32;
        let mut absorb = |e: std::io::Error| -> Result<(), JournalError> {
            let transient = matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
            );
            if transient && transients < TRANSIENT_RETRIES {
                transients += 1;
                Ok(())
            } else {
                Err(e.into())
            }
        };
        let mut written = 0usize;
        while written < frame.len() {
            if self.fault.as_ref().is_some_and(|p| p.io_transient(ordinal)) {
                absorb(std::io::Error::from(std::io::ErrorKind::Interrupted))?;
                continue;
            }
            match self.file.write(&frame[written..]) {
                Ok(0) => {
                    return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into());
                }
                Ok(n) => written += n,
                Err(e) => absorb(e)?,
            }
        }
        loop {
            match self.file.sync_data() {
                Ok(()) => return Ok(()),
                Err(e) => absorb(e)?,
            }
        }
    }
}

/// FNV fingerprint of a run configuration's journal-relevant identity:
/// the strategy and processor count. The checkpoint policy is
/// deliberately **excluded** — commit deltas are policy-independent, so
/// a journal recorded under `Eager` resumes under `OnDemand` and vice
/// versa.
pub(crate) fn strategy_fingerprint(strategy: &crate::driver::Strategy, p: usize) -> u64 {
    fnv(format!("{strategy:?}|p={p}").as_bytes())
}

/// FNV fingerprint of the journal element type.
pub(crate) fn elem_fingerprint<T: JournalElem>() -> u64 {
    fnv(T::TAG.as_bytes())
}

/// The journal image of an element type — its header fingerprint and
/// its lossless bit converters — captured once where `T: JournalElem`
/// is known and handed down as plain data, so the run body, the stage
/// loop and the engine stay `T: Value`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ElemBits<T> {
    /// [`elem_fingerprint`] of `T`.
    pub hash: u64,
    /// [`JournalElem::to_bits`].
    pub to_bits: fn(T) -> u64,
    /// [`JournalElem::from_bits`].
    pub from_bits: fn(u64) -> T,
}

impl<T: JournalElem> ElemBits<T> {
    pub(crate) fn of() -> Self {
        ElemBits {
            hash: elem_fingerprint::<T>(),
            to_bits: T::to_bits,
            from_bits: T::from_bits,
        }
    }
}

/// Where the stage loop hands its commit records: the near end of a
/// depth-1 hand-off to the thread that owns the run's [`Journal`] (see
/// [`write_behind`]). At most one record is in flight; the loop collects
/// its result before submitting the next, so record `k + 1` is never
/// written before record `k` is durable, and collects it before any
/// exit, so a run that returns is durable to the frontier it reports.
pub(crate) struct JournalSink {
    records: SyncSender<CommitRecord>,
    results: Receiver<Result<u64, JournalError>>,
    in_flight: bool,
}

impl JournalSink {
    /// Hand `rec` to the writer. The record in flight, if any, must
    /// have been collected.
    pub(crate) fn submit(&mut self, rec: CommitRecord) -> Result<(), JournalError> {
        debug_assert!(!self.in_flight, "one record in flight");
        self.records.send(rec).map_err(|_| writer_gone())?;
        self.in_flight = true;
        Ok(())
    }

    /// Wait until the record in flight is durable (or failed): the
    /// bytes its append wrote, `None` when nothing was in flight.
    pub(crate) fn collect(&mut self) -> Result<Option<u64>, JournalError> {
        if !std::mem::take(&mut self.in_flight) {
            return Ok(None);
        }
        self.results.recv().map_err(|_| writer_gone())?.map(Some)
    }
}

/// The writer thread ended with a record outstanding: it stops at the
/// first failed append, whose error the loop has then already seen, or
/// it panicked (an observer did), and the scope re-raises that.
fn writer_gone() -> JournalError {
    JournalError::Io {
        message: "journal writer thread is gone".into(),
    }
}

/// Run `body` with a sink whose records are appended to `journal` by
/// one extra thread, which owns the journal until `body` returns. Each
/// record goes through [`Journal::append_commit`] — write, `fdatasync`,
/// then observer, fault plan and all — in submission order; the writer
/// stops at the first failed append, so nothing follows a torn or
/// unconfirmed record into the file. `Err` only when the thread could
/// not be started; `body` has then not run.
pub(crate) fn write_behind<R>(
    journal: &mut Journal,
    body: impl FnOnce(JournalSink) -> R,
) -> Result<R, JournalError> {
    let (records, inbox) = sync_channel::<CommitRecord>(1);
    let (outbox, results) = channel();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("rlrpd-journal".into())
            .spawn_scoped(scope, move || {
                for rec in inbox {
                    let appended = journal.append_commit(rec);
                    let failed = appended.is_err();
                    if outbox.send(appended).is_err() || failed {
                        break;
                    }
                }
            })?;
        // `body` owns the sink, so its sender is dropped — and the
        // writer's loop ends — before the scope joins.
        Ok(body(JournalSink {
            records,
            results,
            in_flight: false,
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            n: 128,
            p: 4,
            strategy_hash: 0x1111,
            elem_hash: elem_fingerprint::<f64>(),
            arrays: vec![(64, true), (16, false)],
        }
    }

    fn commit(stage: usize, frontier: usize) -> CommitRecord {
        CommitRecord {
            stage,
            frontier,
            exited_at: None,
            fallback: false,
            arrays: vec![
                (0, vec![(1, 42u64), (5, 7u64)]),
                (1, vec![(0, f64::to_bits(1.5))]),
            ],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rlrpd-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        assert!(j.is_empty());
        j.append_header(&header()).unwrap();
        j.append_commit(commit(0, 32)).unwrap();
        j.append_commit(commit(1, 128)).unwrap();
        assert_eq!(j.records(), 3);

        let j2 = Journal::open(&path).unwrap();
        assert_eq!(j2.header(), Some(&header()));
        assert_eq!(j2.commits(), &[commit(0, 32), commit(1, 128)]);
        assert_eq!(j2.truncated_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_before_header_is_rejected() {
        let path = tmp("no-header-append");
        let mut j = Journal::create(&path).unwrap();
        assert_eq!(j.append_commit(commit(0, 1)), Err(JournalError::NoHeader));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn second_header_is_rejected() {
        let path = tmp("double-header");
        let mut j = Journal::create(&path).unwrap();
        j.append_header(&header()).unwrap();
        assert_eq!(j.append_header(&header()), Err(JournalError::NotEmpty));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        // Build a 3-record journal, then truncate the *file* to every
        // possible byte length: open() must recover exactly the
        // record-aligned valid prefix every time, and appending to the
        // recovered journal must work.
        let path = tmp("torn");
        let mut j = Journal::create(&path).unwrap();
        let b0 = j.append_header(&header()).unwrap();
        let b1 = j.append_commit(commit(0, 32)).unwrap();
        let b2 = j.append_commit(commit(1, 64)).unwrap();
        drop(j);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, b0 + b1 + b2);

        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let expect_commits = if (cut as u64) >= b0 + b1 + b2 {
                2
            } else if (cut as u64) >= b0 + b1 {
                1
            } else if (cut as u64) >= b0 {
                0
            } else {
                // Header torn: unrecoverable.
                assert_eq!(
                    Journal::open(&path).unwrap_err(),
                    JournalError::NoHeader,
                    "cut at {cut}"
                );
                continue;
            };
            let mut j = Journal::open(&path).unwrap();
            assert_eq!(j.commits().len(), expect_commits, "cut at {cut}");
            let expected_len = match expect_commits {
                2 => b0 + b1 + b2,
                1 => b0 + b1,
                _ => b0,
            };
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                expected_len,
                "file truncated to the valid prefix at cut {cut}"
            );
            // The recovered journal accepts further appends.
            j.append_commit(commit(expect_commits, 128)).unwrap();
            let j2 = Journal::open(&path).unwrap();
            assert_eq!(j2.commits().len(), expect_commits + 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_truncates_from_the_corrupt_record() {
        // Flip one byte inside record 1 (the first commit): open must
        // drop records 1 and 2 but keep the header.
        let path = tmp("corrupt-mid");
        let mut j = Journal::create(&path).unwrap();
        let b0 = j.append_header(&header()).unwrap() as usize;
        j.append_commit(commit(0, 32)).unwrap();
        j.append_commit(commit(1, 64)).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[b0 + 12] ^= 0x40; // somewhere inside commit record 0
        std::fs::write(&path, &bytes).unwrap();

        let j = Journal::open(&path).unwrap();
        assert_eq!(j.header(), Some(&header()));
        assert_eq!(
            j.commits().len(),
            0,
            "corrupt record and successors dropped"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), b0 as u64);
        assert!(j.truncated_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spliced_record_from_another_journal_is_rejected() {
        // Identical record bytes from a *different* journal fail the
        // chain check even though their own checksum is fine.
        let path_a = tmp("splice-a");
        let path_b = tmp("splice-b");
        let mut a = Journal::create(&path_a).unwrap();
        let b0a = a.append_header(&header()).unwrap() as usize;
        a.append_commit(commit(0, 32)).unwrap();
        drop(a);
        let mut b = Journal::create(&path_b).unwrap();
        let other = JournalHeader { n: 999, ..header() };
        let hb = b.append_header(&other).unwrap() as usize;
        drop(b);

        // Graft journal A's commit record onto journal B's header.
        let bytes_a = std::fs::read(&path_a).unwrap();
        let mut bytes_b = std::fs::read(&path_b).unwrap();
        bytes_b.extend_from_slice(&bytes_a[b0a..]);
        std::fs::write(&path_b, &bytes_b).unwrap();

        let j = Journal::open(&path_b).unwrap();
        assert_eq!(j.commits().len(), 0, "foreign record rejected by chain");
        assert_eq!(std::fs::metadata(&path_b).unwrap().len(), hb as u64);
        std::fs::remove_file(&path_a).ok();
        std::fs::remove_file(&path_b).ok();
    }

    #[test]
    fn records_survive_the_persist_hardening_harness() {
        // Journal records ride the persist framing; hold them to the
        // same exhaustive truncation/corruption bar as the artifacts.
        let h = header();
        let (hb, chain) = h.encode(CHAIN_SEED);
        crate::persist::assert_decode_hardened(&hb, |b| JournalHeader::decode(b, CHAIN_SEED));
        assert_eq!(chain, fnv(&hb));
        let (cb, next) = commit(0, 32).encode(chain);
        crate::persist::assert_decode_hardened(&cb, |b| CommitRecord::decode(b, chain));
        assert_eq!(next, fnv(&cb));
        assert_eq!(CommitRecord::decode(&cb, chain).unwrap().1, next);
    }

    #[test]
    fn injected_short_write_tears_the_tail() {
        let path = tmp("short-write");
        let mut j = Journal::create(&path).unwrap();
        j.set_fault(Some(Arc::new(FaultPlan::new().short_write_at(1, 7))));
        j.append_header(&header()).unwrap();
        let err = j.append_commit(commit(0, 32)).unwrap_err();
        assert_eq!(
            err,
            JournalError::Injected {
                record: 1,
                op: "short write"
            }
        );
        drop(j);
        // Recovery: the torn record is truncated, the header survives.
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.commits().len(), 0);
        j.append_commit(commit(0, 32)).unwrap();
        assert_eq!(Journal::open(&path).unwrap().commits().len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_corruption_is_silent_until_reopen() {
        let path = tmp("silent-corrupt");
        let mut j = Journal::create(&path).unwrap();
        j.set_fault(Some(Arc::new(FaultPlan::new().corrupt_record_at(1))));
        j.append_header(&header()).unwrap();
        // The corrupted append *succeeds* — and so does the next one.
        j.append_commit(commit(0, 32)).unwrap();
        j.append_commit(commit(1, 64)).unwrap();
        assert_eq!(j.records(), 3);
        drop(j);
        // Reopen detects the corruption and truncates from record 1 —
        // record 2 chains onto the *intended* bytes, so it goes too.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.commits().len(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_fsync_failure_surfaces() {
        let path = tmp("fsync-fail");
        let mut j = Journal::create(&path).unwrap();
        j.set_fault(Some(Arc::new(FaultPlan::new().fsync_fail_at(0))));
        let err = j.append_header(&header()).unwrap_err();
        assert_eq!(
            err,
            JournalError::Injected {
                record: 0,
                op: "fsync"
            }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_io_failures_are_absorbed_by_the_bounded_retry() {
        let path = tmp("transient-ok");
        let mut j = Journal::create(&path).unwrap();
        // 3 injected EINTRs on record 1: well under the retry bound, so
        // the append succeeds and the bytes are intact.
        j.set_fault(Some(Arc::new(FaultPlan::new().transient_io_at(1, 3))));
        j.append_header(&header()).unwrap();
        j.append_commit(commit(0, 32)).unwrap();
        j.append_commit(commit(1, 64)).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.commits(), &[commit(0, 32), commit(1, 64)]);
        assert_eq!(j.truncated_bytes(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transient_streak_beyond_the_bound_surfaces_as_io_error() {
        let path = tmp("transient-exhaust");
        let mut j = Journal::create(&path).unwrap();
        j.set_fault(Some(Arc::new(FaultPlan::new().transient_io_at(0, 1000))));
        let err = j.append_header(&header()).unwrap_err();
        assert!(
            matches!(err, JournalError::Io { .. }),
            "persistent EINTR must surface, got {err:?}"
        );
        // The journal did not advance: a clean retry still works.
        drop(j);
        let mut j = Journal::create(&path).unwrap();
        j.append_header(&header()).unwrap();
        assert_eq!(Journal::open(&path).unwrap().records(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adversarial_frame_lengths_cannot_panic_open() {
        // Frame lengths near u32::MAX, zero-length frames, and random
        // garbage must all be treated as the end of the valid prefix.
        let path = tmp("adversarial-len");
        let mut j = Journal::create(&path).unwrap();
        j.append_header(&header()).unwrap();
        j.append_commit(commit(0, 32)).unwrap();
        drop(j);
        let good = std::fs::read(&path).unwrap();
        for tail in [
            &[0xff, 0xff, 0xff, 0xff][..], // len = u32::MAX, no bytes
            &[0xff, 0xff, 0xff, 0xff, 1, 2, 3],
            &[0, 0, 0, 0, 9, 9], // len = 0
            &[4, 0, 0, 0],       // len = 4, torn payload
            &[1],                // not even a length
        ] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(tail);
            std::fs::write(&path, &bytes).unwrap();
            let j = Journal::open(&path).unwrap();
            assert_eq!(j.commits().len(), 1, "tail {tail:?}");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                good.len(),
                "tail {tail:?} truncated"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn elem_bits_round_trip() {
        fn rt<T: JournalElem + PartialEq + std::fmt::Debug>(v: T) {
            assert_eq!(T::from_bits(v.to_bits()), v);
        }
        rt(-1.5f64);
        rt(2.25f32);
        rt(-9i64);
        rt(-3i32);
        rt(7u32);
        rt(u64::MAX);
        assert_ne!(elem_fingerprint::<f64>(), elem_fingerprint::<i64>());
    }

    #[test]
    fn errors_render() {
        assert!(JournalError::NoHeader.to_string().contains("header"));
        assert!(JournalError::NotEmpty.to_string().contains("records"));
        assert!(JournalError::Mismatch {
            message: "n differs".into()
        }
        .to_string()
        .contains("n differs"));
        assert!(JournalError::Injected {
            record: 3,
            op: "fsync"
        }
        .to_string()
        .contains("record 3"));
    }
}
