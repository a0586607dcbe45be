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
//! (`magic "RLPD" | u32 version | u8 kind | payload | u64 checksum`), so
//! a journal record is independently self-describing and checksummed.
//! Record 0 is the **header** (`KIND_JOURNAL_HEADER`): loop shape,
//! array layout, element type, and strategy fingerprints. Every further
//! record is a **commit record** (`KIND_JOURNAL_COMMIT`): the commit
//! frontier after one stage plus the committed deltas — the `(element,
//! value)` pairs the stage's commit/untested writes changed in shared
//! storage, O(touched) via the checkpoint write-logs, *not* O(array).
//! Both are declared once, as `crate::schema` records: the struct, each
//! field with its wire type, in wire order. The commit record's check —
//! each array's elements strictly ascending — is the one thing about it
//! that is not layout; its flags word and exit word are one field type,
//! `ExitFlags`, which accepts only the pairs it writes.
//!
//! Every payload starts with a **chained hash**: the previous record's
//! chain value ([`CHAIN_SEED`] for the header) — a function of its
//! checksum, which binds all of its bytes (FNV-1a of its full bytes for
//! a version-1 record: a journal an older binary wrote resumes, its
//! records verified and chained by their own version and the new ones
//! appended as version 2). The chain makes records order- and
//! identity-bound: a record spliced from another journal, a reordered
//! record, or a record following a torn write is rejected even though
//! its own checksum passes.
//!
//! ## Torn-write recovery
//!
//! Appends are write-ahead where it counts: a record is counted, shown
//! to an observer and reported to the run only after an `fdatasync` that
//! covers it has returned, records reach the file in submission order,
//! and a run leaves its stage loop — done, paused, fallen back, failed —
//! only once every record it submitted is durable. While the loop runs
//! it may be a bounded number of stages ahead of the durable frontier
//! (**group commit**, [`write_behind`]): what a crash then costs is the
//! re-execution of those stages on resume. A crash can
//! therefore leave at most a torn or missing suffix. [`Journal::open`]
//! scans frames from the start, validating length, framing, checksum,
//! kind, and chain; at the first invalid byte it **truncates the file**
//! to the end of the last valid record (an atomic `set_len` + fsync) and
//! resumes from there. Corruption in the middle of the file truncates
//! everything from the corrupt record on — the recovered prefix is
//! always a consistent run prefix.

use crate::buf::SharedBuf;
use crate::persist::{fnv, PersistError, Reader, Writer, KIND_JOURNAL_COMMIT, KIND_JOURNAL_HEADER};
use crate::remote::{frames, push_frame};
use crate::schema::{open, schema, seal, As, Flag, List, OrMax, Wire};
use crate::value::Value;
use rlrpd_runtime::{FaultDomain, FaultPlan};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Chain seed of record 0 (no previous record to hash). Shared with the
/// distributed wire protocol ([`crate::remote`]), which replays the
/// exact same record chain over worker pipes.
pub(crate) const CHAIN_SEED: u64 = 0x524c_5250_444a_4e4c; // "RLRPDJNL"

/// Bounded transient-errno (`EINTR`/`EAGAIN`) retries absorbed per
/// frame written, and per sync, before the failure surfaces.
const TRANSIENT_RETRIES: u32 = 8;

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

schema! {
    /// The journal's header record: everything resume needs to check that
    /// the journal belongs to this (loop, configuration) pair.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct JournalHeader {
        /// Iteration count of the journaled loop.
        pub n: usize => As<usize, u64>,
        /// Virtual processor count of the journaled run.
        pub p: usize => As<usize, u32>,
        /// FNV fingerprint of the canonical strategy description.
        pub strategy_hash: u64 => u64,
        /// FNV fingerprint of [`JournalElem::TAG`].
        pub elem_hash: u64 => u64,
        /// Per declared array, in declaration order: `(size, is_tested)`.
        pub arrays: Vec<(u64, bool)> => List<u32, (u64, Flag)>,
    }
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
        seal::<Self>(KIND_JOURNAL_HEADER, Some(prev_chain), self)
    }

    /// The header in `bytes`, if they chain onto `prev_chain`, and the
    /// chain value after them.
    pub(crate) fn decode(bytes: &[u8], prev_chain: u64) -> Result<(Self, u64), PersistError> {
        open::<Self>(KIND_JOURNAL_HEADER, bytes, Some(prev_chain))
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
        seal::<Self>(KIND_JOURNAL_COMMIT, Some(prev_chain), self)
    }

    /// The record in `bytes`, if they chain onto `prev_chain`, and the
    /// chain value after them.
    pub(crate) fn decode(bytes: &[u8], prev_chain: u64) -> Result<(Self, u64), PersistError> {
        open::<Self>(KIND_JOURNAL_COMMIT, bytes, Some(prev_chain))
    }

    /// The record's check: each array's elements strictly ascending, as
    /// they are written — a disordered list is corruption, and refusing
    /// it keeps replay canonical.
    fn elems_ascend(&self) -> bool {
        self.arrays
            .iter()
            .all(|(_, elems)| elems.windows(2).all(|pair| pair[0].0 < pair[1].0))
    }
}

schema! {
    CommitRecord {
        frontier: As<usize, u64>,
        stage: As<usize, u32>,
        exited_at, fallback: ExitFlags,
        arrays: List<u32, (u32, List<u64, (u32, u64)>)>,
    } check CommitRecord::elems_ascend
}

/// A commit record's `exited_at` and `fallback`, spelled as they always
/// were: a `u32` flags word ([`FLAG_EXITED`], [`FLAG_FALLBACK`]), then
/// the exit iteration as a `u64`, `u64::MAX` when there is none. The
/// exit flag is set exactly when the exit word is not the sentinel; any
/// other flag bit, or a flag that disagrees with the word, is `Corrupt`.
struct ExitFlags;

impl Wire for ExitFlags {
    type Value = (Option<usize>, bool);
    const MIN: usize = 4 + 8;
    fn put(&(exited_at, fallback): &Self::Value, w: &mut Writer) {
        let exited = if exited_at.is_some() { FLAG_EXITED } else { 0 };
        let flags = exited | if fallback { FLAG_FALLBACK } else { 0 };
        w.u32(flags);
        <OrMax<As<usize, u64>>>::put(&exited_at, w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, PersistError> {
        let flags = r.u32()?;
        let exited_at = <OrMax<As<usize, u64>>>::get(r)?;
        if flags & !(FLAG_EXITED | FLAG_FALLBACK) != 0
            || (flags & FLAG_EXITED != 0) != exited_at.is_some()
        {
            return Err(PersistError::Corrupt);
        }
        Ok((exited_at, flags & FLAG_FALLBACK != 0))
    }
}

/// The boxed callback inside a [`FrameObserver`].
type FrameFn = Box<dyn FnMut(&[u8]) + Send>;

/// A live tap on the journal's append stream: called with the exact
/// frame bytes (`u32 len | record`) after each durable append, so what
/// an observer has been handed is at every moment a prefix of the file.
/// The daemon fans these frames out to subscribed clients as they are —
/// it frames nothing a second time — which makes a subscriber's stream
/// that same prefix, verbatim.
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
    /// Chain value after the last valid record (CHAIN_SEED initially).
    chain: u64,
    /// Records in the file, header included (== ordinal of the next
    /// append).
    records: usize,
    header: Option<JournalHeader>,
    commits: Vec<CommitRecord>,
    /// Torn/corrupt bytes discarded by the last [`Journal::open`].
    truncated_bytes: u64,
    /// `fdatasync`s that made commit records durable.
    syncs: usize,
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
            syncs: 0,
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
        // The walk ends at a zero length or a torn frame; a record that
        // does not decode, or does not chain, ends the valid prefix too.
        for (rec, end) in frames(&buf) {
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
            syncs: 0,
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

    /// How many `fdatasync`s made this journal's commit records durable
    /// since it was created or opened. A run's writer commits in groups
    /// ([`write_behind`]), so this is at most — and, whenever a sync was
    /// slower than a stage, less than — the records appended. It depends
    /// on timing: a diagnostic, never part of a report.
    pub fn syncs(&self) -> usize {
        self.syncs
    }

    /// Write the header record. Must be the first append.
    pub fn append_header(&mut self, header: &JournalHeader) -> Result<u64, JournalError> {
        if self.records != 0 {
            return Err(JournalError::NotEmpty);
        }
        let (bytes, next_chain) = header.encode(self.chain);
        let mut frame = Vec::new();
        push_frame(&mut frame, &bytes);
        self.write_frame(&frame, 0)?;
        self.sync()?;
        self.confirm(&frame, next_chain);
        self.header = Some(header.clone());
        Ok(frame.len() as u64)
    }

    /// Append one stage's commit record (write-ahead: returns only
    /// after the bytes are fsynced) — a group of one through
    /// [`Journal::append_commits`]. Returns the bytes appended.
    pub fn append_commit(&mut self, rec: CommitRecord) -> Result<u64, JournalError> {
        let mut appended = 0;
        self.append_commits(vec![rec], |bytes| appended = bytes)?;
        Ok(appended)
    }

    /// **The one append**, of a group of commit records: each is encoded
    /// against the running chain and written with its own `write`, in
    /// order; then **one** `fdatasync` covers them all; and only after
    /// it has returned is each record, in the same order, counted
    /// (`chain`, `records`, `commits`), shown to the observer and
    /// reported to `durable` with the bytes it appended. On a failure
    /// nothing of the group is counted, observed or reported — whatever
    /// reached the file is a chain-valid prefix with at most a torn
    /// tail, which the next [`Journal::open`] sorts out.
    pub(crate) fn append_commits(
        &mut self,
        recs: Vec<CommitRecord>,
        mut durable: impl FnMut(u64),
    ) -> Result<(), JournalError> {
        if self.records == 0 {
            return Err(JournalError::NoHeader);
        }
        let mut chain = self.chain;
        let mut frames = Vec::with_capacity(recs.len());
        for (k, rec) in recs.iter().enumerate() {
            let (bytes, next_chain) = rec.encode(chain);
            let mut frame = Vec::new();
            push_frame(&mut frame, &bytes);
            self.write_frame(&frame, self.records + k)?;
            frames.push((frame, next_chain));
            chain = next_chain;
        }
        self.sync()?;
        self.syncs += 1;
        for (rec, (frame, next_chain)) in recs.into_iter().zip(frames) {
            self.confirm(&frame, next_chain);
            self.commits.push(rec);
            durable(frame.len() as u64);
        }
        Ok(())
    }

    /// How many records one `fdatasync` may cover. A plan that arms
    /// journal-record sites gets one record per sync, so that a torn
    /// write, a failed or slow sync or a corrupted record leaves exactly
    /// the file and the observer prefix its ordinal says, run after run.
    fn group_limit(&self) -> usize {
        let fault = self.fault.as_deref();
        if fault.is_some_and(|plan| plan.arms(FaultDomain::Record)) {
            1
        } else {
            IN_FLIGHT
        }
    }

    /// Write the frame of record `ordinal` at the end of the file — or
    /// what the fault plan makes of it there, up to the stall a slow
    /// device puts in front of its sync. Transient errnos
    /// (`EINTR`/`EAGAIN`) are retried from the exact byte they
    /// interrupted, never re-writing a landed prefix, up to
    /// [`TRANSIENT_RETRIES`] per frame; anything else — or a longer
    /// streak — surfaces as [`JournalError::Io`].
    fn write_frame(&mut self, frame: &[u8], ordinal: usize) -> Result<(), JournalError> {
        let plan = self.fault.as_deref();
        if let Some(keep) = plan.and_then(|p| p.io_short_write(ordinal)) {
            // Torn append: a byte prefix lands, then the "crash".
            self.file.write_all(&frame[..keep.min(frame.len())])?;
            return Err(JournalError::Injected {
                record: ordinal,
                op: "short write",
            });
        }
        if plan.is_some_and(|p| p.io_corrupt(ordinal)) {
            // Silent media corruption: the append *succeeds* (the run
            // continues normally) but the bytes on disk are wrong — only
            // the next open's validation catches it. Observers see the
            // *intended* bytes: the run's live view is the logical
            // record, not the damaged media.
            let mut damaged = frame.to_vec();
            damaged[4 + (frame.len() - 4) / 2] ^= 0x01;
            self.file.write_all(&damaged)?;
            return Ok(());
        }
        let mut transients = 0u32;
        let mut written = 0usize;
        while written < frame.len() {
            if plan.is_some_and(|p| p.io_transient(ordinal)) {
                let interrupted = std::io::ErrorKind::Interrupted;
                absorb(&mut transients, interrupted.into())?;
                continue;
            }
            match self.file.write(&frame[written..]) {
                Ok(0) => {
                    return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into());
                }
                Ok(n) => written += n,
                Err(e) => absorb(&mut transients, e)?,
            }
        }
        if plan.is_some_and(|p| p.io_fsync_fail(ordinal)) {
            // The write landed, but durability is never confirmed:
            // report the fault with nothing counted, as a real fsync
            // failure would.
            return Err(JournalError::Injected {
                record: ordinal,
                op: "fsync",
            });
        }
        if let Some(stall) = plan.and_then(|p| p.io_slow_fsync(ordinal)) {
            std::thread::sleep(stall);
        }
        Ok(())
    }

    /// The durability barrier: `fdatasync`, absorbing up to
    /// [`TRANSIENT_RETRIES`] transient errnos.
    fn sync(&mut self) -> Result<(), JournalError> {
        let mut transients = 0u32;
        loop {
            match self.file.sync_data() {
                Ok(()) => return Ok(()),
                Err(e) => absorb(&mut transients, e)?,
            }
        }
    }

    /// Count a frame that a sync has covered: the chain moves past it
    /// and the observer sees it.
    fn confirm(&mut self, frame: &[u8], next_chain: u64) {
        self.chain = next_chain;
        self.records += 1;
        if let Some(obs) = self.observer.as_mut() {
            (obs.0)(frame);
        }
    }
}

/// Count one more transient errno against [`TRANSIENT_RETRIES`]: `Err`
/// for any other error, and for a transient streak past the bound.
fn absorb(transients: &mut u32, e: std::io::Error) -> Result<(), JournalError> {
    let transient = matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
    );
    if transient && *transients < TRANSIENT_RETRIES {
        *transients += 1;
        Ok(())
    } else {
        Err(e.into())
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

/// How many records a run may have submitted to its journal's writer
/// and not yet know to be durable — the depth of the queue between the
/// stage loop and the writer, the most one `fdatasync` ever covers, and
/// the number of stages a crash can cost a resume.
///
/// The writer syncs a group at half this bound (see [`LINGER`]), so a
/// run of fast stages pays one `fdatasync` per `IN_FLIGHT / 2` records
/// and keeps the other half to run ahead on while that sync is under
/// way. What a sync costs sets the value. On the benchmark host the
/// `write + fdatasync` of a 5.7 KB record takes 180–220 µs, little of
/// which a stage can hide (the harness pins the run, its workers and
/// the writer to one CPU, and the virtual disk's flush holds it). The
/// SPICE deck (`spice_durable_fleet`: 350 records per op, ≈ 400 µs per
/// fleet stage) read, three runs per depth in one hour in which the
/// parent — a hand-off of depth one — read 1.58 to 1.69:
///
/// | `IN_FLIGHT` | syncs per 70 records | `op_cal_ratio` |
/// |---|---|---|
/// | 2 | 68 | 1.72, 1.61, 1.65 |
/// | 4 | 34 | 1.49, 1.42, 1.34 |
/// | 8 | 18 | 1.24, 1.30, 1.24 |
/// | 16 | 9 | 1.16, 1.17, 1.13 |
/// | 32 | 5 | 1.15, 1.19, 1.10 |
///
/// Each halving of the syncs saves half of what the one before did. 8
/// takes about 70 % of what there is to take. 16 would take most of the
/// rest, and double both what a crash re-executes and what a run may
/// hold queued: a daemon job's records are ≈ 166 KB each — 1.3 MiB per
/// running job at 8 — under a 5 % bound on a `peak_rss_mb` of ≈ 100.
const IN_FLIGHT: usize = 8;

/// How long the writer waits for the next record before it syncs a
/// group that is short of half the bound.
///
/// Without the wait a group is what queued during the previous sync —
/// 1.2 to 1.5 records where a sync takes about as long as a stage, as
/// on the benchmark host: 53–60 syncs per 70 records and an
/// `op_cal_ratio` of 1.41, 1.44, 1.46, against 18 syncs and 1.20–1.31
/// with it (same hour, `IN_FLIGHT` 8). The value must exceed the stages
/// worth grouping and stay below anything a client watching a job, or a
/// resume, would notice. Stages of 130–400 µs group fully at 0.5, 1, 2
/// and 4 ms alike (18 syncs at each; three runs each read 1.20–1.38,
/// 1.27–1.31, 1.25–1.41, 1.20–1.26, in no order); a loop whose stages
/// outlast it is synced record by record, each at most this late, for
/// under a tenth of a stage. The wait is never on the run's path:
/// nothing waits for a record until `IN_FLIGHT` are outstanding — half
/// the bound has queued long before — or until the sink settles, which
/// closes the queue and ends the wait at once. And it bounds in time
/// what a crash costs: the loop gets more than one record ahead only
/// while its stages are shorter than this.
const LINGER: Duration = Duration::from_millis(2);

/// Where the stage loop hands its commit records: the near end of the
/// bounded queue to the thread that owns the run's [`Journal`] (see
/// [`write_behind`]). Records are written in submission order and their
/// results come back in that order; at most [`IN_FLIGHT`] are ever
/// outstanding — submitted, result not yet taken — and
/// [`JournalSink::settle`], which every exit of the run goes through
/// and which ends the sink, waits for all of them, so a run that returns
/// is durable to the frontier it reports.
pub(crate) struct JournalSink {
    records: SyncSender<CommitRecord>,
    results: Receiver<Result<u64, JournalError>>,
    /// Records handed to the writer.
    submitted: usize,
    /// What each record known to be durable appended, in submission
    /// order.
    durable: Vec<u64>,
}

impl JournalSink {
    fn outstanding(&self) -> usize {
        self.submitted - self.durable.len()
    }

    /// Take the next result — waiting for it if `wait`; `Ok(false)` when
    /// there is none yet. Results are taken in submission order, so the
    /// first failure met is the earliest; nothing is outstanding after
    /// it, because the writer has stopped.
    fn reap(&mut self, wait: bool) -> Result<bool, JournalError> {
        let taken = if wait {
            self.results.recv().map_err(|_| TryRecvError::Disconnected)
        } else {
            self.results.try_recv()
        };
        let appended = match taken {
            Ok(appended) => appended,
            Err(TryRecvError::Empty) => return Ok(false),
            Err(TryRecvError::Disconnected) => Err(writer_gone()),
        };
        if appended.is_err() {
            self.submitted = self.durable.len();
        }
        self.durable.push(appended?);
        Ok(true)
    }

    /// Hand `rec` to the writer, behind everything submitted before it.
    /// Takes the results that already exist without waiting, and waits
    /// for one only when [`IN_FLIGHT`] records are outstanding. A failed
    /// append of an earlier record is reported here, or by `settle`.
    pub(crate) fn submit(&mut self, rec: CommitRecord) -> Result<(), JournalError> {
        while self.outstanding() > 0 && self.reap(self.outstanding() == IN_FLIGHT)? {}
        if self.records.send(rec).is_err() {
            // The writer stopped at a failed append. That record's own
            // error — the earlier event — is among the results not yet
            // taken, and is what the run reports.
            while self.outstanding() > 0 {
                self.reap(true)?;
            }
            return Err(writer_gone());
        }
        self.submitted += 1;
        Ok(())
    }

    /// Wait until every record submitted is durable (or one has
    /// failed): what each appended, in submission order. The queue is
    /// closed first, which tells a writer that is waiting for a group
    /// to fill that nothing more is coming.
    pub(crate) fn settle(self) -> Result<Vec<u64>, JournalError> {
        let JournalSink {
            records,
            results,
            submitted,
            mut durable,
        } = self;
        drop(records);
        while durable.len() < submitted {
            let appended = results.recv().map_err(|_| writer_gone())?;
            durable.push(appended?);
        }
        Ok(durable)
    }
}

/// The writer thread ended owing a result. A writer that stops at a
/// failed append has reported it first, so this one panicked (an
/// observer did), and the scope re-raises that.
fn writer_gone() -> JournalError {
    JournalError::Io {
        message: "journal writer thread is gone".into(),
    }
}

/// Run `body` with a sink whose records are appended to `journal` by
/// one extra thread, which owns the journal until `body` returns — and
/// which **commits in groups**: it blocks for one record, gives the
/// group at most [`LINGER`] per record to fill to half the bound, takes
/// every other record that has queued meanwhile, and appends them with
/// one `fdatasync` ([`Journal::append_commits`]: fault plan, observer
/// and all, in submission order). Whatever queued behind a sync shares
/// the next one, so the run advances at the speed of its stages, not of
/// the device, at most [`IN_FLIGHT`] records ahead of the durable
/// frontier; half the bound per group leaves the other half for the
/// stages that run beside its sync. The writer stops at the first
/// failed append, so nothing follows a torn or unconfirmed record into
/// the file. `Err` only when the thread could not be started; `body`
/// has then not run.
pub(crate) fn write_behind<R>(
    journal: &mut Journal,
    body: impl FnOnce(JournalSink) -> R,
) -> Result<R, JournalError> {
    let (records, inbox) = sync_channel::<CommitRecord>(IN_FLIGHT);
    let (outbox, results) = channel();
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("rlrpd-journal".into())
            .spawn_scoped(scope, move || {
                let limit = journal.group_limit();
                while let Ok(first) = inbox.recv() {
                    let mut group = vec![first];
                    // (Not at all under a limit of one. A closed queue —
                    // the sink is settling — and a quiet one both end
                    // the wait.)
                    while group.len() < limit / 2 {
                        let Ok(rec) = inbox.recv_timeout(LINGER) else {
                            break;
                        };
                        group.push(rec);
                    }
                    group.extend(inbox.try_iter().take(limit - group.len()));
                    // (A sink that is gone takes no results.)
                    let appended = journal.append_commits(group, |bytes| {
                        let _ = outbox.send(Ok(bytes));
                    });
                    if let Err(e) = appended {
                        let _ = outbox.send(Err(e));
                        break;
                    }
                }
            })?;
        // `body` owns the sink, so its sender is dropped — and the
        // writer's loop ends — before the scope joins.
        Ok(body(JournalSink {
            records,
            results,
            submitted: 0,
            durable: Vec::new(),
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
    fn records_chain_and_refuse_hostile_counts() {
        // The decode sweep over every record kind is `persist`'s; here,
        // what the chain and the list bound add for journal records.
        let (hb, chain) = header().encode(CHAIN_SEED);
        assert_eq!(Some(chain), crate::persist::record_chain(&hb));
        let (cb, next) = commit(0, 32).encode(chain);
        let decode = |b: &[u8]| CommitRecord::decode(b, chain);
        assert_eq!(Some(next), crate::persist::record_chain(&cb));
        assert_eq!(decode(&cb).unwrap().1, next);

        // Hostile counts, resealed: refused by the list bound before an
        // array is read (an array is 32 B in memory; 1 MiB holds 87 381).
        let with_arrays = |declared: u32, payload: usize| {
            let mut w = Writer::with_payload(KIND_JOURNAL_COMMIT, 0);
            w.u64(chain);
            w.u64(32);
            w.u32(0);
            w.u32(0);
            w.u64(u64::MAX); // no exit
            w.u32(declared);
            for _ in 0..payload / 4 {
                w.u32(0);
            }
            w.finish().0
        };
        let (empty, _) = decode(&with_arrays(2, 2 * 12)).unwrap();
        assert_eq!(empty.arrays, vec![(0, Vec::new()); 2]);
        for declared in [u32::MAX, (1 << 20) / 12 + 1, 1 << 20] {
            assert_eq!(
                decode(&with_arrays(declared, 1 << 20)).map(|_| ()),
                Err(PersistError::Corrupt),
                "{declared} arrays in front of 1 MiB"
            );
        }
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
    fn a_group_of_records_shares_one_sync_and_is_observed_only_after_it() {
        let path = tmp("group");
        let mut j = Journal::create(&path).unwrap();
        j.append_header(&header()).unwrap();
        // The observer notes how long the file is each time it is
        // called: with the whole group in it, every time.
        let lens = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (seen, file) = (Arc::clone(&lens), path.clone());
        j.set_observer(Some(FrameObserver::new(move |_| {
            let len = std::fs::metadata(&file).unwrap().len();
            seen.lock().unwrap().push(len);
        })));
        let group = vec![commit(0, 32), commit(1, 64), commit(2, 128)];
        let mut appended = Vec::new();
        j.append_commits(group.clone(), |bytes| appended.push(bytes))
            .unwrap();
        assert_eq!((j.syncs(), j.records()), (1, 4));
        assert_eq!(j.commits(), &group[..]);
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(*lens.lock().unwrap(), vec![len; 3]);
        assert_eq!(appended.len(), 3);
        // One more, alone: the same function, a group of one.
        j.append_commit(commit(3, 128)).unwrap();
        assert_eq!((j.syncs(), j.records()), (2, 5));
        drop(j);

        // The file is what record-by-record appends write.
        let one_by_one = tmp("group-singly");
        let mut k = Journal::create(&one_by_one).unwrap();
        k.append_header(&header()).unwrap();
        for (rec, &bytes) in group.iter().zip(&appended) {
            assert_eq!(k.append_commit(rec.clone()), Ok(bytes));
        }
        k.append_commit(commit(3, 128)).unwrap();
        assert_eq!(k.syncs(), 4);
        assert!(std::fs::read(&path).unwrap() == std::fs::read(&one_by_one).unwrap());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&one_by_one).ok();
    }

    #[test]
    fn a_failed_group_counts_nothing_and_a_record_fault_plan_is_not_grouped() {
        let path = tmp("group-fail");
        let mut j = Journal::create(&path).unwrap();
        j.append_header(&header()).unwrap();
        assert_eq!(j.group_limit(), IN_FLIGHT);
        j.set_fault(Some(Arc::new(FaultPlan::new().panic_at_iter(3))));
        assert_eq!(j.group_limit(), IN_FLIGHT, "no record site armed");
        j.set_fault(Some(Arc::new(FaultPlan::new().fsync_fail_at(2))));
        assert_eq!(j.group_limit(), 1);
        // Were the two appended as a group all the same: the second
        // record's failure leaves the first written and uncounted.
        let mut appended = 0;
        let err = j
            .append_commits(vec![commit(0, 32), commit(1, 64)], |_| appended += 1)
            .unwrap_err();
        let op = "fsync";
        assert_eq!(err, JournalError::Injected { record: 2, op });
        assert_eq!((appended, j.syncs(), j.records()), (0, 0, 1));
        assert!(j.commits().is_empty());
        drop(j);
        // Both are in the file, whole and chained: a re-open keeps them,
        // as it keeps any record whose confirmation alone was lost.
        assert_eq!(Journal::open(&path).unwrap().commits().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn the_writer_runs_at_most_in_flight_records_behind_the_sink() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc::channel;
        let path = tmp("bound");
        let mut j = Journal::create(&path).unwrap();
        j.append_header(&header()).unwrap();
        // The observer holds the writer on the first commit frame — its
        // result does not exist — until the test lets go.
        let (let_go, held) = channel::<()>();
        let released = AtomicBool::new(false);
        j.set_observer(Some(FrameObserver::new(move |_| {
            let _ = held.recv();
        })));
        let durable = write_behind(&mut j, |mut sink| {
            std::thread::scope(|scope| {
                for k in 0..IN_FLIGHT {
                    sink.submit(commit(k, k + 1)).unwrap();
                }
                // None of those waited: nothing has been let go.
                assert_eq!(sink.outstanding(), IN_FLIGHT);
                let released = &released;
                scope.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    released.store(true, Ordering::SeqCst);
                    drop(let_go);
                });
                // One more is one too many: it waits for a result.
                sink.submit(commit(IN_FLIGHT, 128)).unwrap();
                assert!(released.load(Ordering::SeqCst), "submitted past the bound");
                assert!(sink.outstanding() <= IN_FLIGHT);
            });
            sink.settle().unwrap().len()
        })
        .unwrap();
        assert_eq!(durable, IN_FLIGHT + 1);
        assert_eq!(j.commits().len(), IN_FLIGHT + 1);
        assert!(j.syncs() <= 3, "the queue shared a sync: {}", j.syncs());
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
