//! The write-ahead log: update batches made durable before publication.
//!
//! ## On-disk layout
//!
//! The log is a directory of append-only **segments** named
//! `wal-NNNNNN.seg`. Each segment starts with a 16-byte header:
//!
//! ```text
//! magic "NCWL" (4) | version: u32 | segment index: u64
//! ```
//!
//! followed by frames identical in shape to the stream-record frames,
//! written and read by the same `netclus_service::framing` code:
//!
//! ```text
//! len: u32 | crc: u32 (CRC-32 of payload) | payload (len bytes)
//! ```
//!
//! A frame payload is one encoded [`WalBatch`], in the field codec of
//! `netclus::codec` (an add op's nodes are its count-prefixed node list):
//!
//! ```text
//! epoch: u64 | op count: u32 | ops… | mark count: u32 | marks…
//! op   = tag: u8 (0 add-traj | 1 remove-traj | 2 add-site | 3 remove-site)
//!        tag 0: end time: f64 (stream seconds) | nodes: u32 | node ids
//!        tags 1–3: id or node: u32
//! mark = source: u32 | high-water seq: u64
//! ```
//!
//! `epoch` is the snapshot epoch the batch publishes — replay asserts the
//! chain is gapless, so a recovered store lands on exactly the pre-crash
//! epoch. The per-add **end time** and the per-source high-water **marks**
//! make the rest of the pipeline's soft state durable too: a restarted
//! ingestor folds them back out of the log to resume TTL expiry and
//! at-least-once duplicate detection (see [`crate::pipeline`]).
//!
//! ## Durability
//!
//! [`WalWriter::append`] buffers; an fsync (`File::sync_data`) is issued
//! every [`WalConfig::sync_every_frames`] frames and on [`WalWriter::sync`],
//! amortizing the dominant cost of small-batch durability. Writers rotate
//! to a fresh segment once the current one exceeds
//! [`WalConfig::segment_max_bytes`]; every new segment's header is fsynced
//! before any frame lands in it, so a durable directory entry never names
//! a headerless file. Writers always start a fresh segment on open, after
//! `repair_tail` has truncated any torn tail a crashed run left behind —
//! a torn frame must never end up buried mid-log, where replay would have
//! to treat it as corruption.
//!
//! ## Recovery
//!
//! [`read_wal`] replays segments in index order, verifying every checksum.
//! A frame extending past the **end of the last segment** is the expected
//! signature of a crash mid-append: replay stops cleanly there and reports
//! `truncated_tail` (a final segment too short to even hold its header —
//! a crash between rotation and the header fsync — is the empty form of
//! the same signature). Everything else — a checksum mismatch or
//! implausible length with the frame's bytes fully present, or truncation
//! before the final segment — is a hard [`WalError::Corrupt`]: appends are
//! strictly sequential, so a bad frame with durable data after it can
//! never be a torn write, and silent loss of acknowledged batches must
//! never be papered over.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use netclus::codec::{put_f64, put_trajectory, put_u32, put_u64, ShardCodecError, WireReader};
use netclus_roadnet::NodeId;
use netclus_service::framing::{frame_into, read_frame_into, FrameError, HEADER_BYTES};
use netclus_service::UpdateOp;
use netclus_trajectory::TrajId;

const MAGIC: &[u8; 4] = b"NCWL";
const VERSION: u32 = 2;
const SEGMENT_HEADER_BYTES: u64 = 16;

/// Upper bound on one WAL frame's payload (16 MiB) — the workspace-wide
/// frame ceiling from `netclus_service::wire`.
pub(crate) const MAX_WAL_PAYLOAD: usize = netclus_service::wire::MAX_BATCH_FRAME;

/// WAL configuration.
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding the segments (created if missing).
    pub dir: PathBuf,
    /// Rotate to a new segment once the current one exceeds this size.
    pub segment_max_bytes: u64,
    /// Issue an fsync every this many appended frames. `1` (the default)
    /// means every batch is durable *before* it is published. Larger
    /// values batch fsyncs for throughput at a durability cost: up to
    /// this many recent batches may be visible to queries but not yet
    /// durable, and a crash loses them — recovery then lands on the
    /// latest durable epoch, not the latest published one.
    pub sync_every_frames: u32,
}

impl WalConfig {
    /// A config writing to `dir` with 4 MiB segments and per-frame fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        WalConfig {
            dir: dir.into(),
            segment_max_bytes: 4 << 20,
            sync_every_frames: 1,
        }
    }
}

/// One durable unit: the ops of a published batch, the epoch it
/// published, and the pipeline soft state the batch advanced.
#[derive(Clone, Debug)]
pub struct WalBatch {
    /// Snapshot epoch this batch publishes (gapless chain from the base).
    pub epoch: u64,
    /// The operations, in application order.
    pub ops: Vec<UpdateOp>,
    /// Stream end time of each `AddTrajectory` op, in op order — what a
    /// restarted lifecycle manager needs to resume TTL expiry.
    pub add_times: Vec<f64>,
    /// Per-source high-water sequence numbers advanced by this batch,
    /// sorted by source — what a restarted pipeline needs to resume
    /// duplicate detection.
    pub marks: Vec<(u32, u64)>,
}

/// WAL failure modes.
#[derive(Debug)]
pub enum WalError {
    /// Filesystem failure.
    Io(io::Error),
    /// A segment file has a bad magic/version header.
    BadSegmentHeader(PathBuf),
    /// An unreadable frame before the tail of the last segment.
    Corrupt {
        /// The segment the bad frame lives in.
        segment: PathBuf,
        /// Byte offset of the frame within the segment.
        offset: u64,
        /// What failed.
        reason: String,
    },
    /// A frame decoded but its contents are invalid (bad op tag, epoch
    /// gap, empty trajectory).
    Malformed(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O failure: {e}"),
            WalError::BadSegmentHeader(p) => {
                write!(f, "not a WAL segment: {}", p.display())
            }
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "corrupt WAL frame in {} at offset {offset}: {reason}",
                segment.display()
            ),
            WalError::Malformed(why) => write!(f, "malformed WAL contents: {why}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<ShardCodecError> for WalError {
    fn from(e: ShardCodecError) -> Self {
        WalError::Malformed(e.0.to_string())
    }
}

/// Encodes a batch payload (no frame header). `add_times` holds the
/// stream end time of each `AddTrajectory` in `ops`, in op order (exactly
/// one per add op); `marks` the per-source high-water sequence numbers
/// this batch advances, sorted by source.
pub fn encode_batch(
    epoch: u64,
    ops: &[UpdateOp],
    add_times: &[f64],
    marks: &[(u32, u64)],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 + ops.len() * 16 + marks.len() * 12);
    put_u64(&mut buf, epoch);
    put_u32(&mut buf, ops.len() as u32);
    let mut times = add_times.iter();
    for op in ops {
        match op {
            UpdateOp::AddTrajectory(t) => {
                buf.push(0);
                let end = times.next().expect("one end time per AddTrajectory op");
                put_f64(&mut buf, *end);
                put_trajectory(&mut buf, t);
            }
            UpdateOp::RemoveTrajectory(id) => {
                buf.push(1);
                put_u32(&mut buf, id.0);
            }
            UpdateOp::AddSite(v) => {
                buf.push(2);
                put_u32(&mut buf, v.0);
            }
            UpdateOp::RemoveSite(v) => {
                buf.push(3);
                put_u32(&mut buf, v.0);
            }
        }
    }
    assert!(
        times.next().is_none(),
        "more end times than AddTrajectory ops"
    );
    put_u32(&mut buf, marks.len() as u32);
    for &(source, seq) in marks {
        put_u32(&mut buf, source);
        put_u64(&mut buf, seq);
    }
    buf
}

/// Decodes a batch payload. Every count is believed only as far as the
/// bytes left can back it (an op is ≥ 5 bytes, a mark 12, a node 4), so
/// a forged count is refused before anything is allocated for it.
pub fn decode_batch(payload: &[u8]) -> Result<WalBatch, WalError> {
    let err = |why: &str| WalError::Malformed(why.to_string());
    let mut r = WireReader::new(payload);
    let epoch = r.u64()?;
    let count = r.count(5, "op count exceeds payload")?;
    let mut ops = Vec::with_capacity(count);
    let mut add_times = Vec::new();
    for _ in 0..count {
        let op = match r.u8()? {
            0 => {
                let end_time = r.f64()?;
                if !end_time.is_finite() {
                    return Err(err("non-finite add end time"));
                }
                add_times.push(end_time);
                UpdateOp::AddTrajectory(r.trajectory()?)
            }
            1 => UpdateOp::RemoveTrajectory(TrajId(r.u32()?)),
            2 => UpdateOp::AddSite(NodeId(r.u32()?)),
            3 => UpdateOp::RemoveSite(NodeId(r.u32()?)),
            _ => return Err(err("unknown op tag")),
        };
        ops.push(op);
    }
    let mark_count = r.count(12, "mark count exceeds payload")?;
    let mut marks = Vec::with_capacity(mark_count);
    for _ in 0..mark_count {
        marks.push((r.u32()?, r.u64()?));
    }
    if r.remaining() != 0 {
        return Err(err("trailing bytes after marks"));
    }
    Ok(WalBatch {
        epoch,
        ops,
        add_times,
        marks,
    })
}

/// What one append did.
#[derive(Clone, Copy, Debug)]
pub struct AppendInfo {
    /// Bytes written for the frame (header + payload), plus a segment
    /// header when the append rotated.
    pub bytes: u64,
    /// True if this append triggered an fsync.
    pub synced: bool,
    /// True if this append rotated to a new segment.
    pub rotated: bool,
}

/// The appender. One writer per log directory; see the module docs for
/// the format and durability contract.
pub struct WalWriter {
    cfg: WalConfig,
    out: BufWriter<File>,
    /// The frame being appended, reused across appends.
    frame: Vec<u8>,
    segment_index: u64,
    segment_bytes: u64,
    frames_since_sync: u32,
    synced_everything: bool,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.seg"))
}

/// Segment files in `dir`, as `(index, path)` sorted by index.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(index) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((index, path));
        }
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    Ok(out)
}

impl WalWriter {
    /// Opens a writer on `cfg.dir`, starting a fresh segment after any
    /// existing ones (a torn tail from a crashed run is never appended to).
    ///
    /// Any torn tail is first truncated via `repair_tail` — once the
    /// fresh segment exists, the previous one is no longer last, where a
    /// torn frame would make every future [`read_wal`] fail as mid-log
    /// corruption.
    pub fn open(cfg: WalConfig) -> io::Result<WalWriter> {
        std::fs::create_dir_all(&cfg.dir)?;
        repair_tail(&cfg.dir).map_err(|e| match e {
            WalError::Io(io) => io,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        })?;
        let next_index = list_segments(&cfg.dir)?.last().map_or(0, |&(i, _)| i + 1);
        Ok(WalWriter {
            // `open_segment` fsyncs the header, so recovery sees a
            // well-formed log even if we crash before the first append.
            out: BufWriter::new(open_segment(&cfg.dir, next_index)?),
            frame: Vec::new(),
            cfg,
            segment_index: next_index,
            segment_bytes: SEGMENT_HEADER_BYTES,
            frames_since_sync: 0,
            synced_everything: true,
        })
    }

    /// Appends one frame, rotating and fsyncing per the config. The frame
    /// is on its way to disk when this returns; it is *guaranteed* durable
    /// only once `synced` is reported (or [`WalWriter::sync`] is called).
    pub fn append(&mut self, payload: &[u8]) -> io::Result<AppendInfo> {
        assert!(payload.len() <= MAX_WAL_PAYLOAD, "oversized WAL payload");
        let frame_bytes = (HEADER_BYTES + payload.len()) as u64;
        let mut info = AppendInfo {
            bytes: frame_bytes,
            synced: false,
            rotated: false,
        };
        if self.segment_bytes + frame_bytes > self.cfg.segment_max_bytes
            && self.segment_bytes > SEGMENT_HEADER_BYTES
        {
            self.rotate()?;
            info.rotated = true;
            info.bytes += SEGMENT_HEADER_BYTES;
        }
        frame_into(&mut self.frame, |buf| buf.extend_from_slice(payload))?;
        self.out.write_all(&self.frame)?;
        self.segment_bytes += frame_bytes;
        self.frames_since_sync += 1;
        self.synced_everything = false;
        if self.frames_since_sync >= self.cfg.sync_every_frames.max(1) {
            self.sync()?;
            info.synced = true;
        }
        Ok(info)
    }

    /// Flushes and fsyncs outstanding frames. A no-op when everything is
    /// already durable.
    pub fn sync(&mut self) -> io::Result<bool> {
        if self.synced_everything {
            return Ok(false);
        }
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        self.frames_since_sync = 0;
        self.synced_everything = true;
        Ok(true)
    }

    /// The segment currently being appended to.
    pub fn current_segment(&self) -> PathBuf {
        segment_path(&self.cfg.dir, self.segment_index)
    }

    /// Consumes the writer *without* flushing its buffer: frames appended
    /// since the last flush are discarded, exactly as a process crash
    /// would discard them. This is the crash-simulation path
    /// ([`crate::pipeline::Ingestor::abort`] uses it) — a normal drop
    /// flushes the buffer and would make "lost" frames durable after all.
    pub(crate) fn simulate_crash(self) {
        let (file, _discarded_buffer) = self.out.into_parts();
        drop(file);
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Seal the old segment fully before the new one exists.
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        self.segment_index += 1;
        self.out = BufWriter::new(open_segment(&self.cfg.dir, self.segment_index)?);
        self.segment_bytes = SEGMENT_HEADER_BYTES;
        self.frames_since_sync = 0;
        self.synced_everything = true;
        Ok(())
    }
}

/// The bytes segment `index` starts with: magic, version, index.
fn segment_header(index: u64) -> Vec<u8> {
    let mut header = MAGIC.to_vec();
    put_u32(&mut header, VERSION);
    put_u64(&mut header, index);
    header
}

/// A segment file read whole, by the state of its header.
enum Segment {
    /// Too short to hold a header: a crash between the file's creation
    /// and its header fsync.
    Headerless,
    /// A full header that is not this segment's.
    BadHeader,
    /// A valid header; the whole file, frames from
    /// [`SEGMENT_HEADER_BYTES`] on.
    Frames(Vec<u8>),
}

/// Reads segment `index` and checks its header — the one check
/// [`repair_tail`] and [`read_wal`] share.
fn read_segment(path: &Path, index: u64) -> io::Result<Segment> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let header = segment_header(index);
    Ok(match data.get(..header.len()) {
        None => Segment::Headerless,
        Some(h) if h != header => Segment::BadHeader,
        Some(_) => Segment::Frames(data),
    })
}

fn open_segment(dir: &Path, index: u64) -> io::Result<File> {
    let path = segment_path(dir, index);
    let mut f = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    f.write_all(&segment_header(index))?;
    // The header must be durable before any frame fsync can make the
    // directory entry durable: otherwise a power loss right after
    // rotation can leave a durable entry naming a headerless file.
    f.sync_data()?;
    // fsyncing the file persists its blocks but not the directory entry
    // that names it: without this, a power loss can make a whole
    // fsync-acknowledged segment vanish from the directory listing.
    sync_dir(dir)?;
    Ok(f)
}

/// What `repair_tail` did to a log directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TailRepair {
    /// Trailing segments removed because they were too short to hold a
    /// header (a crash between segment creation and the header fsync —
    /// such a file cannot hold any acknowledged frame).
    pub removed_segments: usize,
    /// Bytes truncated off the final segment's torn tail.
    pub truncated_bytes: u64,
}

impl TailRepair {
    /// True if the repair changed the directory at all.
    pub fn repaired(&self) -> bool {
        self.removed_segments > 0 || self.truncated_bytes > 0
    }
}

/// Repairs the log tail in place so the remains of a crash can never end
/// up mid-log on a later run: removes trailing segments too short to hold
/// their header and truncates the final segment to the end of its last
/// valid frame. Corruption — a frame whose bytes are fully present but
/// wrong — is never repaired; [`read_wal`] must keep failing loudly on it.
/// Called by [`WalWriter::open`] before a fresh segment is created and by
/// [`crate::recovery::recover_store`] before replay.
pub(crate) fn repair_tail(dir: &Path) -> Result<TailRepair, WalError> {
    let mut repair = TailRepair::default();
    loop {
        let segments = list_segments(dir)?;
        let Some((index, path)) = segments.last() else {
            return Ok(repair);
        };
        let data = match read_segment(path, *index)? {
            Segment::Headerless => {
                std::fs::remove_file(path)?;
                sync_dir(dir)?;
                repair.removed_segments += 1;
                // The now-last segment was sealed by the rotation that
                // created the removed one, but re-scan it anyway: open()
                // itself can crash between repair and the header fsync.
                continue;
            }
            // A full but wrong header is corruption, not a torn write.
            Segment::BadHeader => return Ok(repair),
            Segment::Frames(data) => data,
        };
        let mut rest = &data[SEGMENT_HEADER_BYTES as usize..];
        let mut payload = Vec::new();
        loop {
            let offset = data.len() - rest.len();
            match read_frame_into(&mut rest, MAX_WAL_PAYLOAD, &mut payload) {
                Ok(true) => {}
                Err(FrameError::Truncated) => {
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(offset as u64)?;
                    // Truncation is a metadata change: sync_all, not
                    // sync_data, makes the new length durable.
                    file.sync_all()?;
                    repair.truncated_bytes += (data.len() - offset) as u64;
                    break;
                }
                // The end of the segment, or corruption left for
                // `read_wal` to report.
                Ok(false) | Err(_) => break,
            }
        }
        return Ok(repair);
    }
}

/// fsyncs the directory inode so newly created segment files survive a
/// power loss. Best-effort where directories cannot be opened as files
/// (non-POSIX platforms).
fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Result of scanning a WAL directory.
#[derive(Debug)]
pub struct ReplayLog {
    /// The decoded batches, in append order.
    pub batches: Vec<WalBatch>,
    /// Total frame bytes read (excluding segment headers).
    pub bytes: u64,
    /// Segments scanned.
    pub segments: usize,
    /// True if the last segment ended in a torn/unreadable frame (the
    /// normal signature of a crash mid-append).
    pub truncated_tail: bool,
}

/// Reads every durable batch from the log directory. See the module docs
/// for the tail-truncation contract. A missing directory is an empty log.
pub fn read_wal(dir: &Path) -> Result<ReplayLog, WalError> {
    let segments = list_segments(dir)?;
    let mut log = ReplayLog {
        batches: Vec::new(),
        bytes: 0,
        segments: segments.len(),
        truncated_tail: false,
    };
    let mut payload = Vec::new();
    for (pos, (index, path)) in segments.iter().enumerate() {
        let last_segment = pos + 1 == segments.len();
        let data = match read_segment(path, *index)? {
            Segment::Frames(data) => data,
            // A crash between rotation creating this file and its header
            // fsync: the empty form of a torn tail — no frame in it can
            // ever have been acknowledged.
            Segment::Headerless if last_segment => {
                log.truncated_tail = true;
                continue;
            }
            _ => return Err(WalError::BadSegmentHeader(path.clone())),
        };
        let mut rest = &data[SEGMENT_HEADER_BYTES as usize..];
        loop {
            let offset = data.len() - rest.len();
            let reason = match read_frame_into(&mut rest, MAX_WAL_PAYLOAD, &mut payload) {
                Ok(true) => {
                    log.batches.push(decode_batch(&payload)?);
                    log.bytes += (data.len() - rest.len() - offset) as u64;
                    continue;
                }
                Ok(false) => break,
                // A frame extending past EOF in the last segment is the
                // signature of a crash mid-append: the rest of the log is
                // exactly what was durable.
                Err(FrameError::Truncated) if last_segment => {
                    log.truncated_tail = true;
                    break;
                }
                // Anything else — a checksum mismatch or implausible
                // length with the frame's bytes fully present, or
                // truncation before the final segment — is corruption of
                // durable data and must fail loudly: appends are strictly
                // sequential, so a bad frame with valid data after it can
                // never be a torn write.
                Err(FrameError::Truncated) => "segment truncated before the log tail".to_string(),
                Err(e) => e.to_string(),
            };
            return Err(WalError::Corrupt {
                segment: path.clone(),
                offset: offset as u64,
                reason,
            });
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_trajectory::Trajectory;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("netclus-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn add(nodes: &[u32]) -> UpdateOp {
        UpdateOp::AddTrajectory(Trajectory::new(nodes.iter().map(|&n| NodeId(n)).collect()))
    }

    /// Encodes `ops` with a zero end time per add and no marks.
    fn batch(epoch: u64, ops: &[UpdateOp]) -> Vec<u8> {
        let times: Vec<f64> = ops
            .iter()
            .filter(|op| matches!(op, UpdateOp::AddTrajectory(_)))
            .map(|_| 0.0)
            .collect();
        encode_batch(epoch, ops, &times, &[])
    }

    fn ops_eq(a: &[UpdateOp], b: &[UpdateOp]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| match (x, y) {
                (UpdateOp::AddTrajectory(s), UpdateOp::AddTrajectory(t)) => s == t,
                (UpdateOp::RemoveTrajectory(s), UpdateOp::RemoveTrajectory(t)) => s == t,
                (UpdateOp::AddSite(s), UpdateOp::AddSite(t)) => s == t,
                (UpdateOp::RemoveSite(s), UpdateOp::RemoveSite(t)) => s == t,
                _ => false,
            })
    }

    #[test]
    fn batch_payload_roundtrip() {
        let ops = vec![
            add(&[1, 2, 3]),
            UpdateOp::RemoveTrajectory(TrajId(7)),
            add(&[4, 5]),
            UpdateOp::AddSite(NodeId(9)),
            UpdateOp::RemoveSite(NodeId(4)),
        ];
        let times = [120.5, 260.0];
        let marks = [(1u32, 17u64), (6, 3)];
        let payload = encode_batch(42, &ops, &times, &marks);
        let decoded = decode_batch(&payload).unwrap();
        assert_eq!(decoded.epoch, 42);
        assert!(ops_eq(&decoded.ops, &ops));
        assert_eq!(decoded.add_times, times);
        assert_eq!(decoded.marks, marks);
    }

    #[test]
    fn append_read_roundtrip_with_sync_batching() {
        let dir = tmp_dir("roundtrip");
        let mut w = WalWriter::open(WalConfig {
            sync_every_frames: 3,
            ..WalConfig::new(&dir)
        })
        .unwrap();
        let mut syncs = 0;
        for epoch in 1..=7u64 {
            let info = w.append(&batch(epoch, &[add(&[epoch as u32])])).unwrap();
            syncs += info.synced as u32;
        }
        assert_eq!(syncs, 2, "7 frames at sync_every=3 → 2 automatic fsyncs");
        assert!(w.sync().unwrap(), "tail still needed a sync");
        assert!(!w.sync().unwrap(), "second sync is a no-op");
        drop(w);

        let log = read_wal(&dir).unwrap();
        assert_eq!(log.batches.len(), 7);
        assert!(!log.truncated_tail);
        for (i, b) in log.batches.iter().enumerate() {
            assert_eq!(b.epoch, i as u64 + 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_replay_in_order() {
        let dir = tmp_dir("rotate");
        let mut w = WalWriter::open(WalConfig {
            segment_max_bytes: 256,
            ..WalConfig::new(&dir)
        })
        .unwrap();
        let mut rotations = 0;
        for epoch in 1..=40u64 {
            let info = w.append(&batch(epoch, &[add(&[1, 2, 3, 4, 5])])).unwrap();
            rotations += info.rotated as u32;
        }
        drop(w);
        assert!(rotations >= 2, "expected rotations, got {rotations}");
        let log = read_wal(&dir).unwrap();
        assert!(log.segments >= 3);
        assert_eq!(log.batches.len(), 40);
        let epochs: Vec<u64> = log.batches.iter().map(|b| b.epoch).collect();
        assert_eq!(epochs, (1..=40).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let dir = tmp_dir("torn");
        let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        for epoch in 1..=3u64 {
            w.append(&batch(epoch, &[add(&[1])])).unwrap();
        }
        let segment = w.current_segment();
        drop(w);
        // Chop 3 bytes off the last frame: a torn append.
        let data = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &data[..data.len() - 3]).unwrap();
        let log = read_wal(&dir).unwrap();
        assert_eq!(log.batches.len(), 2);
        assert!(log.truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_a_hard_error() {
        let dir = tmp_dir("corrupt");
        // Two segments; corrupt a frame in the first.
        let mut w = WalWriter::open(WalConfig {
            segment_max_bytes: 128,
            ..WalConfig::new(&dir)
        })
        .unwrap();
        let first_segment = w.current_segment();
        for epoch in 1..=10u64 {
            w.append(&batch(epoch, &[add(&[1, 2, 3, 4])])).unwrap();
        }
        assert_ne!(w.current_segment(), first_segment, "need ≥ 2 segments");
        drop(w);
        let mut data = std::fs::read(&first_segment).unwrap();
        let n = data.len();
        data[n - 2] ^= 0xFF;
        std::fs::write(&first_segment, &data).unwrap();
        assert!(matches!(read_wal(&dir), Err(WalError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_in_last_segment_is_a_hard_error() {
        // A checksum mismatch with the frame's bytes fully present is
        // corruption of durable data, even in the last segment — only
        // truncation at EOF may be treated as a torn tail.
        for victim in [1usize, 2] {
            let dir = tmp_dir(&format!("last-corrupt-{victim}"));
            let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
            let mut frame_starts = Vec::new();
            let mut offset = SEGMENT_HEADER_BYTES;
            for epoch in 1..=3u64 {
                frame_starts.push(offset);
                let info = w.append(&batch(epoch, &[add(&[1, 2])])).unwrap();
                offset += info.bytes;
            }
            let segment = w.current_segment();
            drop(w);
            // Flip a payload byte of the victim frame (middle, then final).
            let mut data = std::fs::read(&segment).unwrap();
            let idx = frame_starts[victim] as usize + 10;
            data[idx] ^= 0xFF;
            std::fs::write(&segment, &data).unwrap();
            assert!(
                matches!(read_wal(&dir), Err(WalError::Corrupt { .. })),
                "victim frame {victim} not detected as corruption"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn reopen_starts_a_fresh_segment() {
        let dir = tmp_dir("reopen");
        let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        w.append(&batch(1, &[add(&[1])])).unwrap();
        let first = w.current_segment();
        drop(w);
        let w2 = WalWriter::open(WalConfig::new(&dir)).unwrap();
        assert_ne!(w2.current_segment(), first);
        drop(w2);
        let log = read_wal(&dir).unwrap();
        assert_eq!(log.batches.len(), 1);
        assert_eq!(log.segments, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression test for the torn-tail-then-restart sequence: a crash
    /// mid-append leaves a torn tail in segment N; the restarted writer
    /// creates segment N+1 — without the open-time repair, segment N is
    /// no longer last and every later read would hard-fail as mid-log
    /// corruption, permanently.
    #[test]
    fn torn_tail_is_repaired_on_reopen() {
        let dir = tmp_dir("torn-reopen");
        let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        for epoch in 1..=3u64 {
            w.append(&batch(epoch, &[add(&[1])])).unwrap();
        }
        let segment = w.current_segment();
        drop(w);
        // Chop 3 bytes off the last frame: epoch 3 was torn mid-append.
        let data = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &data[..data.len() - 3]).unwrap();

        // Restart: open repairs the tail, then the log keeps working —
        // across this and any number of future restarts.
        let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        w.append(&batch(3, &[add(&[7])])).unwrap();
        drop(w);
        let w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        drop(w);

        let log = read_wal(&dir).unwrap();
        assert!(!log.truncated_tail);
        let epochs: Vec<u64> = log.batches.iter().map(|b| b.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_truncates_torn_tail_and_is_idempotent() {
        let dir = tmp_dir("repair");
        let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        for epoch in 1..=2u64 {
            w.append(&batch(epoch, &[add(&[1, 2])])).unwrap();
        }
        let segment = w.current_segment();
        drop(w);
        let data = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &data[..data.len() - 5]).unwrap();

        let repair = repair_tail(&dir).unwrap();
        // Everything after frame 1's end is gone.
        let frame_1_end =
            SEGMENT_HEADER_BYTES as usize + HEADER_BYTES + batch(1, &[add(&[1, 2])]).len();
        assert_eq!(
            repair.truncated_bytes as usize,
            data.len() - 5 - frame_1_end
        );
        assert!(repair.repaired());
        assert_eq!(repair_tail(&dir).unwrap(), TailRepair::default());
        let log = read_wal(&dir).unwrap();
        assert_eq!(log.batches.len(), 1);
        assert!(!log.truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A final segment shorter than its header (crash between rotation
    /// and the header fsync) is an empty torn tail for the reader, and
    /// repair removes it so a later writer starts cleanly.
    #[test]
    fn headerless_final_segment_is_tolerated_and_repaired() {
        let dir = tmp_dir("headerless");
        let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        w.append(&batch(1, &[add(&[4])])).unwrap();
        drop(w);
        std::fs::write(segment_path(&dir, 1), b"NCWL\x02\x00").unwrap();

        let log = read_wal(&dir).unwrap();
        assert_eq!(log.batches.len(), 1);
        assert!(log.truncated_tail);

        let repair = repair_tail(&dir).unwrap();
        assert_eq!(repair.removed_segments, 1);
        assert_eq!(repair.truncated_bytes, 0);
        let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        w.append(&batch(2, &[add(&[5])])).unwrap();
        drop(w);
        let log = read_wal(&dir).unwrap();
        assert_eq!(log.batches.len(), 2);
        assert!(!log.truncated_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Corruption (bytes present but wrong) must never be "repaired"
    /// away — replay keeps failing loudly on it.
    #[test]
    fn repair_leaves_corruption_alone() {
        let dir = tmp_dir("repair-corrupt");
        let mut w = WalWriter::open(WalConfig::new(&dir)).unwrap();
        for epoch in 1..=2u64 {
            w.append(&batch(epoch, &[add(&[1, 2, 3])])).unwrap();
        }
        let segment = w.current_segment();
        drop(w);
        let mut data = std::fs::read(&segment).unwrap();
        let n = data.len();
        data[n - 2] ^= 0xFF;
        std::fs::write(&segment, &data).unwrap();

        assert_eq!(repair_tail(&dir).unwrap(), TailRepair::default());
        assert_eq!(std::fs::read(&segment).unwrap(), data, "file untouched");
        assert!(matches!(read_wal(&dir), Err(WalError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `simulate_crash` must lose the buffered (un-synced) tail exactly
    /// as a real crash would — a plain drop would flush it to disk.
    #[test]
    fn simulate_crash_discards_buffered_frames() {
        let dir = tmp_dir("simulate-crash");
        let mut w = WalWriter::open(WalConfig {
            sync_every_frames: u32::MAX,
            ..WalConfig::new(&dir)
        })
        .unwrap();
        w.append(&batch(1, &[add(&[1])])).unwrap();
        w.sync().unwrap(); // epoch 1 durable
        w.append(&batch(2, &[add(&[2])])).unwrap(); // epoch 2 buffered only
        w.simulate_crash();
        let log = read_wal(&dir).unwrap();
        assert_eq!(log.batches.len(), 1, "buffered frame must be lost");
        assert_eq!(log.batches[0].epoch, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_empty_log() {
        let log = read_wal(Path::new("/nonexistent/netclus-wal")).unwrap();
        assert!(log.batches.is_empty());
        assert_eq!(log.segments, 0);
    }

    #[test]
    fn malformed_batch_contents_rejected() {
        assert!(matches!(
            decode_batch(&batch(1, &[])[..8]),
            Err(WalError::Malformed(_))
        ));
        let mut payload = batch(1, &[add(&[5])]);
        payload.push(0xAB); // trailing junk
        assert!(matches!(
            decode_batch(&payload),
            Err(WalError::Malformed(_))
        ));
    }
}
