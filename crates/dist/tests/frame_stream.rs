//! Frame-decode hardening for the wire transport: TCP hands the
//! supervisor and worker arbitrary read boundaries — a frame can arrive
//! one byte at a time, or several frames can land in one buffer. The
//! framing layer must reassemble identically no matter how the stream
//! is sliced, never panic, and never consume bytes beyond the frame it
//! is decoding (an over-read would eat the next frame's length prefix
//! and desynchronize the whole session).

use std::io::Read;

use proptest::prelude::*;
use rlrpd_core::persist::reseal;
use rlrpd_core::remote::{
    encode_heartbeat, encode_shutdown, read_frame, write_frame, BlockReply, BlockRequest, HelloAck,
    WireHello,
};

/// A reader that honors a list of cut positions: each `read` returns at
/// most the bytes up to the next cut, forcing the decoder to reassemble
/// across multiple reads. Tracks exactly how many bytes were consumed.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    cuts: Vec<usize>,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, mut cuts: Vec<usize>) -> ChunkedReader {
        cuts.sort_unstable();
        ChunkedReader { data, pos: 0, cuts }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let next_cut = self
            .cuts
            .iter()
            .copied()
            .find(|&c| c > self.pos)
            .unwrap_or(self.data.len())
            .min(self.data.len());
        let n = buf.len().min(next_cut - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Concatenate `frames` as the wire would carry them.
fn stream_of(frames: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        write_frame(&mut out, f).expect("write to a Vec cannot fail");
    }
    out
}

/// Decode the whole stream through `reader`, asserting each frame comes
/// back byte-identical and that the decoder consumed exactly the bytes
/// of the frames it returned (no over-read past a frame boundary).
fn assert_stream_decodes(frames: &[Vec<u8>], mut reader: ChunkedReader) {
    let mut consumed = 0usize;
    for (k, expect) in frames.iter().enumerate() {
        let got = read_frame(&mut reader)
            .unwrap_or_else(|e| panic!("frame {k} failed to decode: {e}"))
            .unwrap_or_else(|| panic!("clean EOF before frame {k}"));
        assert_eq!(&got, expect, "frame {k} not byte-identical");
        consumed += 4 + expect.len();
        assert_eq!(
            reader.pos, consumed,
            "frame {k}: decoder consumed bytes past its own frame"
        );
    }
    assert_eq!(
        read_frame(&mut reader).expect("trailing EOF is clean"),
        None,
        "stream fully drained"
    );
}

/// A reply whose `iter_costs` is `runs` spelled out: `(first iteration,
/// length, cost)` each — consecutive or not, one cost or several, none
/// at all.
fn reply_of(chain: u64, runs: &[(u32, u8, u8)]) -> BlockReply {
    BlockReply {
        chain,
        iter_costs: runs
            .iter()
            .flat_map(|&(first, len, cost)| {
                (0..len as u32).map(move |k| (first.saturating_add(k), cost as f64 / 4.0))
            })
            .collect(),
        ..Default::default()
    }
}

/// One arbitrary wire frame of any protocol kind.
fn frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (
            any::<u64>(),
            prop::collection::vec((any::<u32>(), 0u8..40, 0u8..3), 0..5)
        )
            .prop_map(|(chain, runs)| reply_of(chain, &runs).encode()),
        any::<u64>().prop_map(encode_heartbeat),
        Just(encode_shutdown()),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(protocol, run_id, header_chain)| {
            HelloAck {
                protocol,
                run_id,
                header_chain,
            }
            .encode()
        }),
        (
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..96),
            "[ -~]{0,48}",
        )
            .prop_map(
                |(protocol, run_id, heartbeat_millis, shadow_budget, header, spec)| {
                    WireHello {
                        protocol,
                        run_id,
                        heartbeat_millis,
                        shadow_budget,
                        header,
                        spec,
                    }
                    .encode()
                },
            ),
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>(),
            any::<u32>(),
        )
            .prop_map(|(chain, stage, pos, start, end, fault)| {
                BlockRequest {
                    chain,
                    stage,
                    pos,
                    start,
                    end,
                }
                .encode(fault)
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any frame sequence, sliced at any byte positions across multiple
    /// reads, reassembles byte-identically with no over-read.
    #[test]
    fn frames_survive_arbitrary_read_boundaries(
        frames in prop::collection::vec(frame(), 1..6),
        raw_cuts in prop::collection::vec(any::<usize>(), 0..24),
    ) {
        let stream = stream_of(&frames);
        let cuts: Vec<usize> = raw_cuts
            .iter()
            .map(|i| i % stream.len().max(1))
            .collect();
        assert_stream_decodes(&frames, ChunkedReader::new(stream, cuts));
    }

    /// A stream truncated anywhere never panics: a cut at a frame
    /// boundary is a clean EOF, a cut inside a frame is an error —
    /// never a bogus frame.
    #[test]
    fn truncated_streams_fail_cleanly(
        frames in prop::collection::vec(frame(), 1..4),
        raw_at in any::<usize>(),
    ) {
        let stream = stream_of(&frames);
        let at = raw_at % (stream.len() + 1);
        let mut reader = ChunkedReader::new(stream[..at].to_vec(), vec![]);
        let mut boundary = 0usize;
        let mut boundaries = vec![0usize];
        for f in &frames {
            boundary += 4 + f.len();
            boundaries.push(boundary);
        }
        loop {
            match read_frame(&mut reader) {
                Ok(Some(_)) => continue,
                Ok(None) => {
                    assert!(
                        boundaries.contains(&at),
                        "clean EOF reported for a cut inside a frame (at {at})"
                    );
                    break;
                }
                Err(_) => {
                    assert!(
                        !boundaries.contains(&at),
                        "decode error reported for a cut at a frame boundary (at {at})"
                    );
                    break;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wire v4: a reply's `(iteration, cost)` pairs travel run-length
    /// encoded and come back as the pairs they were — mixed costs,
    /// single iterations, gaps, repeats and no pairs at all.
    #[test]
    fn run_length_encoded_costs_round_trip(
        chain in any::<u64>(),
        runs in prop::collection::vec((any::<u32>(), 0u8..40, 0u8..3), 0..6),
    ) {
        let reply = reply_of(chain, &runs);
        let back = BlockReply::decode(&reply.encode()).expect("own encoding decodes");
        prop_assert_eq!(back, reply);
    }
}

/// A run whose count was inflated on the wire — checksum made good, so
/// only the decoder stands in the way — sizes nothing: a count no
/// ledger could hold (none, or past the last iteration) is refused, and
/// any other stays one run, to be held against the dispatched block by
/// the supervisor (`execute_remote`), not expanded here.
#[test]
fn hostile_run_counts_size_nothing() {
    let honest = reply_of(7, &[(100, 3, 4)]).encode();
    // No fault, no slots, one run: its `count` sits after the 9-byte
    // envelope head, chain, pos, exit, fault, two slot counts, the run
    // count and the run's first iteration.
    let count_at = 9 + 8 + 4 + 8 + 8 + 4 + 4 + 8 + 4;
    assert_eq!(honest[count_at..count_at + 4], 3u32.to_le_bytes());
    let forge = |count: u32| {
        let mut forged = honest.clone();
        forged[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        reseal(&mut forged);
        forged
    };
    for count in [0u32, u32::MAX - 98, u32::MAX] {
        assert!(
            BlockReply::decode(&forge(count)).is_err(),
            "count {count} decoded"
        );
    }
    for count in [1 << 25, u32::MAX - 99] {
        let forged = forge(count);
        let back = BlockReply::decode(&forged).expect("one run, however long");
        assert_eq!(back.iter_costs.runs().len(), 1);
        assert_eq!(back.iter_costs.len(), count as usize);
        assert_eq!(back.encode(), forged);
    }
}

/// Exhaustive (non-random) leg: one representative multi-frame stream,
/// split into two reads at *every* byte position.
#[test]
fn every_two_chunk_split_decodes_identically() {
    let frames = vec![
        WireHello {
            protocol: 4,
            run_id: 0xdead_beef_0000_0001,
            heartbeat_millis: 25,
            shadow_budget: 1 << 20,
            header: vec![7u8; 33],
            spec: "rlp:array A[4] = 0; for i in 0..4 { A[i] = A[i] + 1; }".into(),
        }
        .encode(),
        encode_heartbeat(0),
        BlockRequest {
            chain: 42,
            stage: 1,
            pos: 3,
            start: 0,
            end: 17,
        }
        .encode(0),
        reply_of(42, &[(0, 17, 4), (17, 1, 2)]).encode(),
        encode_shutdown(),
    ];
    let stream = stream_of(&frames);
    for at in 0..=stream.len() {
        assert_stream_decodes(&frames, ChunkedReader::new(stream.clone(), vec![at]));
    }
}
