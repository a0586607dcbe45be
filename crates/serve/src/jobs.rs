//! Per-job state: the on-disk layout, the live publisher that fans the
//! journal stream out to subscribed clients, and the bounded
//! per-subscriber buffers that give the daemon backpressure.
//!
//! The stream a client receives IS the job's crash journal, verbatim:
//! what a subscriber is sent in front of the daemon's own records — a
//! [`FrontierSummary`] where its queue overflowed, the terminal
//! [`JobStatusFrame`] — is a prefix of the journal file, byte for byte,
//! so "watch the job" and "replicate the journal" are one operation. A
//! live frame is the `u32 len | record` the journal's observer is handed
//! once an `fdatasync` has covered it, queued and written as it is. A
//! late subscriber is caught up with the file's own bytes — the range of
//! its first `records` frames, **by count**: the writer commits in
//! groups, so the file may hold frames not yet durable, and the
//! accounted frames are a prefix of it — then switched to the live
//! queue. The daemon frames nothing of the journal a second time.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Condvar, Mutex};

use rlrpd_core::remote::{commit_frontier, frames, FrontierSummary};
use rlrpd_core::remote::{JobSpec, JobState, JobStatusFrame};

/// File name of the job's meta image (the exact [`JobSpec`] record the
/// client submitted).
pub const META_FILE: &str = "meta.bin";
/// File name of the job's crash journal.
pub const JOURNAL_FILE: &str = "journal.bin";
/// File name of the job's terminal status sidecar (a
/// [`JobStatusFrame`] record, written atomically via tmp + rename).
pub const STATUS_FILE: &str = "status.bin";

/// The tenant of a job: the upper 32 bits of its idempotency key.
/// Clients group related jobs under one tenant by sharing a key
/// prefix; the daemon round-robins dispatch across tenants so one
/// flood of submissions cannot starve another tenant's queue.
pub fn tenant_of(key: u64) -> u32 {
    (key >> 32) as u32
}

/// Directory holding a job's durable state under the daemon's state
/// dir, named by the idempotency key.
pub fn job_dir(state_dir: &Path, key: u64) -> PathBuf {
    state_dir.join(format!("job-{key:016x}"))
}

/// Parse a `job-<key:016x>` directory name back to its key.
pub fn key_of_dir(name: &str) -> Option<u64> {
    u64::from_str_radix(name.strip_prefix("job-")?, 16).ok()
}

/// Write `bytes` to `path` atomically: tmp file, fsync, rename. The
/// status sidecar and the meta image go through this so a crash leaves
/// either the whole record or nothing — never a torn file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        use std::io::Write;
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// A journal file's bytes up to the end of its `limit`-th complete
/// frame (of its last, under `usize::MAX`; nothing for a file that does
/// not exist) — what a late subscriber is caught up with. The walk is
/// [`frames`]: a torn tail from a crash mid-append is simply not part of
/// the snapshot, exactly as `Journal::open` will truncate it on resume.
pub(crate) fn journal_prefix(path: &Path, limit: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = match std::fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        read => read?,
    };
    let end = frames(&buf).take(limit).last().map_or(0, |(_, end)| end);
    buf.truncate(end);
    Ok(buf)
}

/// The records of the first `limit` complete frames of a journal file,
/// one by one.
pub fn read_frames(path: &Path, limit: usize) -> std::io::Result<Vec<Vec<u8>>> {
    let prefix = journal_prefix(path, limit)?;
    Ok(frames(&prefix).map(|(rec, _)| rec.to_vec()).collect())
}

/// Count the complete frames currently in a journal file.
pub fn count_frames(path: &Path) -> usize {
    journal_prefix(path, usize::MAX).map_or(0, |buf| frames(&buf).count())
}

/// One subscribed client stream: a bounded frame queue plus drop
/// accounting. The queue is the daemon's entire memory commitment to
/// a slow client — when it is full, new frames are *dropped* (counted,
/// later coalesced into a [`FrontierSummary`]) rather than buffered,
/// so a stalled reader can never grow daemon memory unboundedly.
pub struct Subscriber {
    state: Mutex<SubState>,
    cond: Condvar,
    /// Queue capacity in frames.
    cap: usize,
}

struct SubState {
    /// Buffered frames, each tagged with how many frames were dropped
    /// immediately *before* it — the marker rides with the next frame
    /// that fit, so summaries land at the position of the gap.
    queue: VecDeque<(Vec<u8>, u64)>,
    /// Drops not yet attached to a queued frame.
    pending_dropped: u64,
    /// The publisher delivered the terminal status frame.
    closed: bool,
    /// The session died; the publisher prunes this entry.
    gone: bool,
}

/// What a session's queue pop yields.
pub enum StreamItem {
    /// A journal frame — the file's bytes, `u32 len | record`, to
    /// forward as they are — or, last of all, the terminal status
    /// record ([`Subscriber::finished`] tells them apart), preceded by
    /// a summary of `dropped` frames if any were lost to backpressure.
    Frame {
        /// The bytes as they were published.
        record: Vec<u8>,
        /// Frames dropped before this one (0 = none; emit a
        /// [`FrontierSummary`] first when positive).
        dropped: u64,
    },
    /// The publisher finished and the queue is drained.
    Closed,
}

impl Subscriber {
    fn new(cap: usize) -> Self {
        Subscriber {
            state: Mutex::new(SubState {
                queue: VecDeque::new(),
                pending_dropped: 0,
                closed: false,
                gone: false,
            }),
            cond: Condvar::new(),
            cap,
        }
    }

    /// Block until a frame is available or the publisher closes.
    pub fn next(&self) -> StreamItem {
        let mut st = self.state.lock().expect("subscriber lock");
        loop {
            if let Some((record, dropped)) = st.queue.pop_front() {
                return StreamItem::Frame { record, dropped };
            }
            if st.closed {
                return StreamItem::Closed;
            }
            st = self.cond.wait(st).expect("subscriber lock");
        }
    }

    /// Has the queue delivered its last frame? [`Publisher::finish`]
    /// pushes the terminal status record last and closes the queue
    /// behind it, so the frame that leaves a closed queue empty is the
    /// status — the one frame of the stream that is not the journal's.
    pub fn finished(&self) -> bool {
        let st = self.state.lock().expect("subscriber lock");
        st.closed && st.queue.is_empty()
    }

    /// Mark this subscriber dead (its session hit a write error or a
    /// stall timeout); the publisher drops it on its next fan-out.
    pub fn mark_gone(&self) {
        self.state.lock().expect("subscriber lock").gone = true;
    }
}

struct PubInner {
    subs: Vec<Arc<Subscriber>>,
    /// Complete frames durably in the journal file and accounted here
    /// (accounted frames are a prefix of the file; see module docs).
    records: u64,
    /// Last commit frontier seen in the stream.
    frontier: u64,
    /// Terminal status frame, once the job finished.
    finished: Option<Vec<u8>>,
}

/// Fans the job's journal stream out to its subscribers. One publisher
/// per job, alive from admission to terminal status; the job thread
/// feeds it from the journal's frame observer.
pub struct Publisher {
    key: u64,
    inner: Mutex<PubInner>,
}

impl Publisher {
    /// A publisher for job `key` whose journal file already holds
    /// `base_records` complete frames (0 for a fresh job).
    pub fn new(key: u64, base_records: u64) -> Self {
        Publisher {
            key,
            inner: Mutex::new(PubInner {
                subs: Vec::new(),
                records: base_records,
                frontier: 0,
                finished: None,
            }),
        }
    }

    /// Reconcile with the journal `Journal::open` recovered: the
    /// accounted record count drops to the `durable` records it kept (a
    /// torn or corrupt tail was truncated; never grows the count), and
    /// the frontier rises to the one its last commit carries.
    pub fn reconcile(&self, durable: u64, frontier: u64) {
        let mut inner = self.inner.lock().expect("publisher lock");
        inner.records = inner.records.min(durable);
        inner.frontier = inner.frontier.max(frontier);
    }

    /// Fan one durable journal frame — `u32 len | record`, as the
    /// journal's observer is handed it — out to every live subscriber,
    /// unchanged. Full queues drop the frame and count it; dead
    /// sessions are pruned here.
    pub fn publish(&self, frame: &[u8]) {
        let mut inner = self.inner.lock().expect("publisher lock");
        inner.records += 1;
        let record = frames(frame).next().map(|(record, _)| record);
        if let Some(fr) = record.and_then(commit_frontier) {
            inner.frontier = inner.frontier.max(fr);
        }
        inner.subs.retain(|sub| {
            let mut st = sub.state.lock().expect("subscriber lock");
            if st.gone {
                return false;
            }
            if st.queue.len() >= sub.cap {
                st.pending_dropped += 1;
            } else {
                let dropped = std::mem::take(&mut st.pending_dropped);
                st.queue.push_back((frame.to_vec(), dropped));
            }
            sub.cond.notify_one();
            true
        });
    }

    /// Deliver the terminal status frame (pushed even into a full
    /// queue — it is the one frame a client must not miss) and close
    /// every subscriber.
    pub fn finish(&self, status: &[u8]) {
        let mut inner = self.inner.lock().expect("publisher lock");
        inner.finished = Some(status.to_vec());
        for sub in &inner.subs {
            let mut st = sub.state.lock().expect("subscriber lock");
            let dropped = std::mem::take(&mut st.pending_dropped);
            st.queue.push_back((status.to_vec(), dropped));
            st.closed = true;
            sub.cond.notify_one();
        }
        inner.subs.clear();
    }

    /// Register a new subscriber. Returns the subscriber, the number of
    /// journal frames the session must replay from the file first (the
    /// catch-up snapshot), and the terminal status frame if the job
    /// already finished.
    pub fn subscribe(&self, cap: usize) -> (Arc<Subscriber>, u64, Option<Vec<u8>>) {
        let mut inner = self.inner.lock().expect("publisher lock");
        let snapshot = inner.records;
        let finished = inner.finished.clone();
        let sub = Arc::new(Subscriber::new(cap));
        if finished.is_none() {
            inner.subs.push(Arc::clone(&sub));
        }
        (sub, snapshot, finished)
    }

    /// The summary record standing in for frames this client lost to
    /// backpressure: the durable frontier and record count, plus how
    /// much detail was skipped.
    pub fn summary(&self, dropped: u64) -> FrontierSummary {
        let inner = self.inner.lock().expect("publisher lock");
        FrontierSummary {
            key: self.key,
            frontier: inner.frontier,
            records: inner.records,
            dropped,
        }
    }

    /// Live subscriber count (tests assert pruning).
    pub fn subscribers(&self) -> usize {
        self.inner.lock().expect("publisher lock").subs.len()
    }
}

/// One job, from admission to terminal status.
pub struct Job {
    /// The submission, bit-for-bit (its encoding is the meta image).
    pub spec: JobSpec,
    /// Durable state directory (`job-<key>` under the daemon's state
    /// dir).
    pub dir: PathBuf,
    /// Lifecycle state.
    pub state: Mutex<JobState>,
    /// Terminal status, once reached.
    pub status: Mutex<Option<JobStatusFrame>>,
    /// The journal fan-out.
    pub publisher: Publisher,
    /// Cooperative stop flag: set by drain, checked by the driver at
    /// every stage boundary.
    pub stop: Arc<AtomicBool>,
}

impl Job {
    /// A job in `Queued` state whose journal file (if any) holds
    /// `base_records` frames.
    pub fn new(spec: JobSpec, dir: PathBuf, base_records: u64) -> Self {
        let key = spec.key;
        Job {
            spec,
            dir,
            state: Mutex::new(JobState::Queued),
            status: Mutex::new(None),
            publisher: Publisher::new(key, base_records),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Current lifecycle state.
    pub fn current_state(&self) -> JobState {
        *self.state.lock().expect("job state lock")
    }

    /// Move to `state`.
    pub fn set_state(&self, state: JobState) {
        *self.state.lock().expect("job state lock") = state;
    }

    /// Path of the job's journal file.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Path of the job's status sidecar.
    pub fn status_path(&self) -> PathBuf {
        self.dir.join(STATUS_FILE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_are_key_prefixes() {
        assert_eq!(tenant_of(0xAAAA_0001_0000_0007), 0xAAAA_0001);
        assert_eq!(tenant_of(7), 0);
    }

    #[test]
    fn job_dir_names_round_trip() {
        let dir = job_dir(Path::new("/tmp/x"), 0xdead_beef);
        let name = dir.file_name().unwrap().to_str().unwrap().to_string();
        assert_eq!(key_of_dir(&name), Some(0xdead_beef));
        assert_eq!(key_of_dir("not-a-job"), None);
    }

    #[test]
    fn full_queues_drop_and_count_instead_of_growing() {
        let p = Publisher::new(1, 0);
        let (sub, snapshot, finished) = p.subscribe(2);
        assert_eq!(snapshot, 0);
        assert!(finished.is_none());
        for k in 0..5u8 {
            p.publish(&[k; 8]);
        }
        // Two buffered, three dropped — the queue never exceeded cap.
        match sub.next() {
            StreamItem::Frame { record, dropped } => {
                assert_eq!(record, vec![0u8; 8]);
                assert_eq!(dropped, 0);
            }
            StreamItem::Closed => panic!("expected a frame"),
        }
        match sub.next() {
            StreamItem::Frame { dropped, .. } => assert_eq!(dropped, 0),
            StreamItem::Closed => panic!("expected a frame"),
        }
        p.publish(&[9; 8]);
        match sub.next() {
            StreamItem::Frame { record, dropped } => {
                assert_eq!(record, vec![9u8; 8]);
                assert_eq!(dropped, 3, "the three overflow frames were counted");
            }
            StreamItem::Closed => panic!("expected a frame"),
        }
        let s = p.summary(3);
        assert_eq!(s.records, 6);
        assert_eq!(s.dropped, 3);
    }

    #[test]
    fn finish_reaches_even_a_full_queue_and_closes() {
        let p = Publisher::new(1, 0);
        let (sub, _, _) = p.subscribe(1);
        p.publish(b"frame-a");
        p.publish(b"frame-b"); // dropped: queue full
        p.finish(b"status");
        match sub.next() {
            StreamItem::Frame { record, .. } => assert_eq!(record, b"frame-a"),
            StreamItem::Closed => panic!("expected the buffered frame"),
        }
        match sub.next() {
            StreamItem::Frame { record, dropped } => {
                assert_eq!(record, b"status");
                assert_eq!(dropped, 1);
            }
            StreamItem::Closed => panic!("expected the status frame"),
        }
        assert!(matches!(sub.next(), StreamItem::Closed));
        assert_eq!(p.subscribers(), 0);
    }

    #[test]
    fn gone_subscribers_are_pruned_on_publish() {
        let p = Publisher::new(1, 0);
        let (sub, _, _) = p.subscribe(4);
        sub.mark_gone();
        p.publish(b"x");
        assert_eq!(p.subscribers(), 0);
    }
}
