//! The WAL batch and GPS record decoders allocate in proportion to the
//! bytes they were given, never to a count they read from them: every
//! truncation of a valid payload and every forged count is decoded under
//! an allocator that records the largest single request.
//!
//! A batch's ops vector is the largest allocation a valid payload makes:
//! `size_of::<UpdateOp>()` bytes per op against at least 5 on disk, so
//! the bound is that ratio times the payload, plus a small constant.
//!
//! One test in this file, so the process-wide allocator below has no
//! other test thread to observe; the recording is per thread regardless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use netclus_ingest::{decode_batch, encode_batch, StreamRecord};
use netclus_roadnet::{NodeId, Point};
use netclus_service::framing::HEADER_BYTES;
use netclus_service::UpdateOp;
use netclus_trajectory::{GpsPoint, GpsTrace, TrajId, Trajectory};

thread_local! {
    /// Largest allocation requested on this thread while recording.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// thread-local `Cell` (no allocation, no destructor) through `try_with`,
// which cannot panic.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| {
            if let Some(max) = l.get() {
                l.set(Some(max.max(layout.size())));
            }
        });
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// Largest single allocation `f` requested on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(Some(0)));
    f();
    LARGEST.with(|l| l.replace(None)).expect("recording was on")
}

/// Every prefix of `valid`, and `valid` with each count at `prefixes`
/// forged upwards.
fn hostile_payloads(valid: &[u8], prefixes: &[usize]) -> Vec<Vec<u8>> {
    let mut payloads: Vec<Vec<u8>> = (0..=valid.len()).map(|cut| valid[..cut].to_vec()).collect();
    for &at in prefixes {
        for forged in [5u32, 4_096, 1 << 20, u32::MAX] {
            let mut bad = valid.to_vec();
            bad[at..at + 4].copy_from_slice(&forged.to_le_bytes());
            payloads.push(bad);
        }
    }
    payloads
}

#[test]
fn ingest_decoders_never_allocate_past_a_small_multiple_of_the_payload() {
    let ops = vec![
        UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(3), NodeId(4), NodeId(9)])),
        UpdateOp::RemoveTrajectory(TrajId(2)),
        UpdateOp::AddTrajectory(Trajectory::new(vec![NodeId(1)])),
    ];
    let batch = encode_batch(7, &ops, &[10.0, 20.0], &[(1, 5), (4, 9)]);
    // The op count, both node counts, the mark count.
    let batch_counts = [8, 12 + 9, 12 + 25 + 5 + 9, batch.len() - 4 - 2 * 12];
    let per_byte = size_of::<UpdateOp>().div_ceil(5);
    for payload in hostile_payloads(&batch, &batch_counts) {
        let mut ok = false;
        let largest = largest_allocation(|| ok = decode_batch(&payload).is_ok());
        assert_eq!(ok, payload == batch, "only the honest batch decodes");
        assert!(
            largest <= per_byte * payload.len() + 64,
            "a {}-byte WAL batch made the decoder ask for {largest} bytes at once",
            payload.len()
        );
    }

    let record = StreamRecord {
        source: 42,
        seq: 7,
        trace: GpsTrace::new(vec![
            GpsPoint::new(Point::new(116.25, 39.5), 10.0),
            GpsPoint::new(Point::new(116.375, 39.625), 12.5),
        ]),
    };
    let frame = record.encode_frame();
    let valid = &frame[HEADER_BYTES..];
    // The fix count.
    for payload in hostile_payloads(valid, &[12]) {
        let mut ok = false;
        let largest = largest_allocation(|| ok = StreamRecord::decode_payload(&payload).is_ok());
        assert_eq!(ok, payload == valid, "only the honest record decodes");
        assert!(
            largest <= payload.len() + 64,
            "a {}-byte GPS record made the decoder ask for {largest} bytes at once",
            payload.len()
        );
    }
}
