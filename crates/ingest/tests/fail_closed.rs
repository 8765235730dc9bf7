//! The ingest formats fail closed, as the shard frames do
//! (`crates/service/tests/cluster.rs`): every truncation and every
//! single-bit flip of a GPS record stream read through `RecordReader`
//! and of a WAL segment read through `read_wal` is refused as a typed
//! error — or, for a WAL cut short at its very end, as the torn tail a
//! crash leaves — and never yields a record or a batch that was not
//! written, never panics.

use std::path::{Path, PathBuf};

use netclus_ingest::{
    decode_batch, encode_batch, read_wal, RecordError, RecordReader, StreamRecord, WalConfig,
    WalError, WalWriter,
};
use netclus_roadnet::{NodeId, Point};
use netclus_service::framing::HEADER_BYTES;
use netclus_service::UpdateOp;
use netclus_trajectory::{GpsPoint, GpsTrace, TrajId, Trajectory};

/// Three framed records back to back, and where each frame starts.
fn record_stream() -> (Vec<StreamRecord>, Vec<u8>, Vec<usize>) {
    let records: Vec<StreamRecord> = (0..3u32)
        .map(|i| StreamRecord {
            source: i,
            seq: 10 + i as u64,
            trace: GpsTrace::new(
                (0..=i)
                    .map(|j| GpsPoint::new(Point::new(j as f64, -(i as f64)), j as f64 * 2.0))
                    .collect(),
            ),
        })
        .collect();
    let (mut bytes, mut starts) = (Vec::new(), Vec::new());
    for r in &records {
        starts.push(bytes.len());
        bytes.extend_from_slice(&r.encode_frame());
    }
    (records, bytes, starts)
}

fn read_records(bytes: &[u8]) -> Vec<Result<StreamRecord, RecordError>> {
    RecordReader::new(bytes).collect()
}

/// Every cut of the stream yields the whole frames before it and then,
/// unless the cut falls on a frame boundary, exactly one `Truncated`.
#[test]
fn every_record_stream_truncation_is_truncated() {
    let (records, bytes, starts) = record_stream();
    for cut in 0..bytes.len() {
        let whole = starts.iter().skip(1).filter(|&&s| s <= cut).count();
        let mut want: Vec<_> = records[..whole].iter().cloned().map(Ok).collect();
        if !starts.contains(&cut) {
            want.push(Err(RecordError::Truncated));
        }
        assert_eq!(read_records(&bytes[..cut]), want, "cut {cut}");
    }
}

/// A flip in a frame's CRC or payload is `BadCrc` and the reader stays in
/// sync: every other record still decodes. A flip in its length prefix is
/// refused too (a CRC mismatch, a truncation or an oversized length), and
/// whatever the reader makes of the bytes after it, it yields no record
/// that was not written.
#[test]
fn every_record_frame_bit_flip_is_refused_and_the_reader_resyncs() {
    let (records, bytes, starts) = record_stream();
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(bytes.len());
        for pos in start..end {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let got = read_records(&flipped);
                assert_eq!(
                    got[..i],
                    records[..i].iter().cloned().map(Ok).collect::<Vec<_>>()
                );
                if pos >= start + 4 {
                    assert!(
                        matches!(got[i], Err(RecordError::BadCrc { .. })),
                        "flip {pos}:{bit}"
                    );
                    let rest: Vec<_> = records[i + 1..].iter().cloned().map(Ok).collect();
                    assert_eq!(got[i + 1..], rest, "reader lost sync after {pos}:{bit}");
                } else {
                    assert!(
                        matches!(
                            got[i],
                            Err(RecordError::BadCrc { .. }
                                | RecordError::Truncated
                                | RecordError::TooLarge(_))
                        ),
                        "length flip {pos}:{bit} gave {:?}",
                        got[i]
                    );
                    assert!(
                        got[i + 1..]
                            .iter()
                            .all(|r| r.as_ref().map_or(true, |r| records.contains(r))),
                        "length flip {pos}:{bit} fabricated a record"
                    );
                }
            }
        }
    }
}

/// Below the frame: every prefix of a record payload fails to decode, and
/// any flipped byte decodes to a record or a typed error, never a panic.
#[test]
fn every_record_payload_truncation_and_flip_fails_closed() {
    let (records, bytes, starts) = record_stream();
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(bytes.len());
        let payload = &bytes[start + HEADER_BYTES..end];
        assert_eq!(
            StreamRecord::decode_payload(payload).as_ref(),
            Ok(&records[i])
        );
        for cut in 0..payload.len() {
            assert!(
                StreamRecord::decode_payload(&payload[..cut]).is_err(),
                "cut {cut}"
            );
        }
        for pos in 0..payload.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut mutated = payload.to_vec();
                mutated[pos] ^= mask;
                let _ = StreamRecord::decode_payload(&mutated);
            }
        }
    }
}

fn add(nodes: &[u32]) -> UpdateOp {
    UpdateOp::AddTrajectory(Trajectory::new(nodes.iter().map(|&n| NodeId(n)).collect()))
}

/// The batch appended for `epoch`: every op kind, a mark.
fn batch(epoch: u64) -> Vec<u8> {
    let ops = [
        add(&[1, 2, epoch as u32 + 2]),
        UpdateOp::RemoveTrajectory(TrajId(epoch as u32)),
        UpdateOp::AddSite(NodeId(4)),
        UpdateOp::RemoveSite(NodeId(5)),
    ];
    encode_batch(epoch, &ops, &[epoch as f64 * 30.0], &[(1, epoch)])
}

/// A log of two segments holding epochs 1–2 and 3–4: both segments' bytes
/// and where each frame starts in them.
struct Log {
    segments: Vec<(PathBuf, Vec<u8>, Vec<usize>)>,
}

impl Log {
    fn write(dir: &Path) -> Log {
        let _ = std::fs::remove_dir_all(dir);
        let frame = (HEADER_BYTES + batch(1).len()) as u64;
        let mut wal = WalWriter::open(WalConfig {
            segment_max_bytes: 16 + 2 * frame,
            ..WalConfig::new(dir)
        })
        .unwrap();
        let mut segments = Vec::new();
        let mut starts = Vec::new();
        let mut at = 16;
        for epoch in 1..=4 {
            let segment = wal.current_segment();
            let info = wal.append(&batch(epoch)).unwrap();
            if info.rotated {
                segments.push((segment, starts));
                starts = Vec::new();
                at = 16;
            }
            starts.push(at);
            at += frame as usize;
        }
        segments.push((wal.current_segment(), starts));
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(segments.len(), 2, "two frames a segment");
        Log {
            segments: segments
                .into_iter()
                .map(|(path, starts)| {
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes, starts)
                })
                .collect(),
        }
    }

    /// Replays the directory with segment `s` replaced by `bytes`: the
    /// epochs replayed and whether the log ended in a torn tail.
    fn replay_with(
        &self,
        dir: &Path,
        s: usize,
        bytes: &[u8],
    ) -> Result<(Vec<u64>, bool), WalError> {
        std::fs::write(&self.segments[s].0, bytes).unwrap();
        let replayed = read_wal(dir);
        std::fs::write(&self.segments[s].0, &self.segments[s].1).unwrap();
        replayed.map(|log| {
            (
                log.batches.iter().map(|b| b.epoch).collect(),
                log.truncated_tail,
            )
        })
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("netclus-fail-closed-{tag}-{}", std::process::id()))
}

/// A cut of the last segment is a torn tail: replay keeps the batches
/// whose frames are whole. A cut of an earlier segment inside a frame is
/// `Corrupt`, and inside its header a bad segment header.
#[test]
fn every_wal_truncation_is_a_torn_tail_or_corruption() {
    let dir = tmp_dir("truncation");
    let log = Log::write(&dir);
    let (_, last, starts) = &log.segments[1];
    for cut in 0..last.len() {
        let whole = starts.iter().skip(1).filter(|&&s| s <= cut).count();
        let want = ((1..=2 + whole as u64).collect(), !starts.contains(&cut));
        let got = log.replay_with(&dir, 1, &last[..cut]);
        assert_eq!(got.unwrap(), want, "last segment cut at {cut}");
    }
    let (_, first, starts) = &log.segments[0];
    for cut in 0..first.len() {
        let whole = starts.iter().skip(1).filter(|&&s| s <= cut).count() as u64;
        match log.replay_with(&dir, 0, &first[..cut]) {
            Err(WalError::BadSegmentHeader(_)) if cut < 16 => {}
            Err(WalError::Corrupt { .. }) if cut >= 16 && !starts.contains(&cut) => {}
            // Cut on a frame boundary: whole batches are missing, which
            // recovery refuses as an epoch gap.
            Ok((epochs, false)) if starts.contains(&cut) => {
                assert_eq!(epochs, (1..=whole).chain(3..=4).collect::<Vec<_>>());
            }
            other => panic!("first segment cut at {cut}: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A flip anywhere in an earlier segment's frames is `Corrupt`. In the
/// last segment a flip in a CRC or payload is `Corrupt`; a flip in a
/// length prefix is `Corrupt` or, when it points past the end of the log,
/// the torn tail a crash leaves, keeping the batches before that frame.
#[test]
fn every_wal_frame_bit_flip_is_corruption() {
    let dir = tmp_dir("flip");
    let log = Log::write(&dir);
    for (s, (_, bytes, starts)) in log.segments.iter().enumerate() {
        for pos in 16..bytes.len() {
            let frame = starts.iter().rposition(|&st| st <= pos).unwrap();
            let in_length = pos < starts[frame] + 4;
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                match log.replay_with(&dir, s, &flipped) {
                    Err(WalError::Corrupt { .. }) => {}
                    Ok((epochs, true)) if s == 1 && in_length => {
                        assert_eq!(epochs, (1..=2 + frame as u64).collect::<Vec<_>>());
                    }
                    other => panic!("segment {s} flip {pos}:{bit}: {other:?}"),
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Below the frame: every prefix of a batch payload fails to decode, and
/// any flipped byte decodes to a batch or a typed error, never a panic.
#[test]
fn every_wal_payload_truncation_and_flip_fails_closed() {
    let payload = batch(3);
    assert_eq!(decode_batch(&payload).unwrap().epoch, 3);
    for cut in 0..payload.len() {
        assert!(
            matches!(decode_batch(&payload[..cut]), Err(WalError::Malformed(_))),
            "cut {cut}"
        );
    }
    for pos in 0..payload.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut mutated = payload.clone();
            mutated[pos] ^= mask;
            let _ = decode_batch(&mutated);
        }
    }
}
