//! The checksum is a format, not an implementation detail: a WAL segment
//! and a GPS record frame written by an earlier build must verify and
//! replay under every later one. The bytes below were produced by the
//! bytewise CRC-32 loop that preceded both of today's kernels, under the
//! encoder of that time; the tests read them back and re-encode them
//! byte for byte.
//! Where the CPU has PCLMULQDQ, the 70-byte WAL frame and the 88-byte
//! GPS record are checksummed by the carry-less-multiply kernel (the
//! first 64 bytes as four lanes, the rest by 16-byte folds and a slicing
//! tail); the 59-byte WAL frame takes the slicing kernel everywhere.

use netclus_ingest::wal::{encode_batch, read_wal, WalConfig, WalWriter};
use netclus_ingest::{crc32, RecordReader, StreamRecord};
use netclus_roadnet::{NodeId, Point};
use netclus_service::UpdateOp;
use netclus_trajectory::{GpsPoint, GpsTrace, TrajId, Trajectory};

/// `wal-000000.seg`: the 16-byte header, then two batch frames of 70 and
/// 59 payload bytes (both leave a remainder after the slicing kernel's
/// 8-byte steps).
const WAL_SEGMENT: [u8; 161] = [
    0x4e, 0x43, 0x57, 0x4c, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x46, 0x00, 0x00, 0x00, 0x33, 0xd2, 0x49, 0xfa, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x93, 0x40, 0x03, 0x00, 0x00,
    0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x02, 0x07, 0x00,
    0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3b, 0x00,
    0x00, 0x00, 0x04, 0x8c, 0xc3, 0xb2, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x03, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x41, 0x9f, 0x40, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
    0x00, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00,
];

/// One framed GPS record: source 42, seq 7, three fixes (88 payload bytes).
const RECORD_FRAME: [u8; 96] = [
    0x58, 0x00, 0x00, 0x00, 0xce, 0x1c, 0xc6, 0xe4, 0x2a, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x5d, 0x40,
    0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x43, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x40,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x18, 0x5d, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x43, 0x40,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x29, 0x40, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0xbf,
    0xfc, 0xa9, 0xf1, 0xd2, 0x4d, 0x62, 0x50, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x29, 0x40,
];

/// The two batches `WAL_SEGMENT` holds, as the arguments of `encode_batch`.
#[allow(clippy::type_complexity)]
fn pinned_batches() -> [(u64, Vec<UpdateOp>, Vec<f64>, Vec<(u32, u64)>); 2] {
    [
        (
            1,
            vec![
                UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(3), NodeId(4), NodeId(9)])),
                UpdateOp::AddSite(NodeId(7)),
            ],
            vec![1234.5],
            vec![(2, 17), (5, 1)],
        ),
        (
            2,
            vec![
                UpdateOp::RemoveTrajectory(TrajId(0)),
                UpdateOp::RemoveSite(NodeId(7)),
                UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(1), NodeId(2)])),
            ],
            vec![2000.25],
            vec![(5, 2)],
        ),
    ]
}

fn pinned_record() -> StreamRecord {
    StreamRecord {
        source: 42,
        seq: 7,
        trace: GpsTrace::new(vec![
            GpsPoint::new(Point::new(116.25, 39.5), 10.0),
            GpsPoint::new(Point::new(116.375, 39.625), 12.5),
            GpsPoint::new(Point::new(-0.1, 1e-3), 12.5),
        ]),
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("netclus-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn wal_segment_written_by_an_earlier_build_replays() {
    let dir = tmp_dir("replay");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal-000000.seg"), WAL_SEGMENT).unwrap();
    let log = read_wal(&dir).expect("every pinned frame verifies");
    assert!(!log.truncated_tail);
    assert_eq!(log.segments, 1);
    assert_eq!(log.bytes, (WAL_SEGMENT.len() - 16) as u64);
    let want = pinned_batches();
    assert_eq!(log.batches.len(), want.len());
    for (got, (epoch, ops, add_times, marks)) in log.batches.iter().zip(&want) {
        assert_eq!(got.epoch, *epoch);
        // `UpdateOp` has no `PartialEq`; its `Debug` form shows every field.
        assert_eq!(format!("{:?}", got.ops), format!("{ops:?}"));
        assert_eq!(&got.add_times, add_times);
        assert_eq!(&got.marks, marks);
    }
    // The stored checksums, read straight out of the frame headers.
    assert_eq!(crc32(&WAL_SEGMENT[24..94]), 0xfa49_d233);
    assert_eq!(crc32(&WAL_SEGMENT[102..161]), 0xb2c3_8c04);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn this_build_writes_the_pinned_wal_segment_byte_for_byte() {
    let dir = tmp_dir("rewrite");
    let mut wal = WalWriter::open(WalConfig::new(&dir)).unwrap();
    for (epoch, ops, add_times, marks) in &pinned_batches() {
        wal.append(&encode_batch(*epoch, ops, add_times, marks))
            .unwrap();
    }
    wal.sync().unwrap();
    assert_eq!(std::fs::read(wal.current_segment()).unwrap(), WAL_SEGMENT);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_frame_written_by_an_earlier_build_decodes_and_re_encodes() {
    let mut reader = RecordReader::new(&RECORD_FRAME[..]);
    let got = reader.next().expect("one frame").expect("frame verifies");
    assert_eq!(got, pinned_record());
    assert!(reader.next().is_none(), "clean end of stream");
    assert_eq!(pinned_record().encode_frame(), RECORD_FRAME);
    assert_eq!(crc32(&RECORD_FRAME[8..]), 0xe4c6_1cce);
}
