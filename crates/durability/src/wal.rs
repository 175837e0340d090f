//! The append-only write-ahead log.
//!
//! Records are length+CRC32-framed and carry a monotone sequence number:
//!
//! ```text
//! [len: u32 LE][crc32: u32 LE][seq: u64 LE][payload: len-8 bytes]
//! ```
//!
//! `len` counts the seq word plus the payload; the CRC (IEEE polynomial)
//! covers the same bytes. The log is split into segments named by the
//! sequence number of their first record (`wal-00000000000000000001.log`),
//! so a segment's contents are self-describing and truncation is whole-file
//! deletion.
//!
//! Durability is *group commit*: [`Wal::append`] only buffers in the OS
//! file; [`Wal::commit`] decides per [`FsyncPolicy`] whether to fsync now,
//! and reports whether the just-appended records are durable — the caller's
//! acknowledgement carries that bit to its client.
//!
//! On open, the scanner stops at the first torn or corrupt record and
//! **never resyncs**: a record after a tear is unreachable even if its own
//! CRC matches, because the tear makes everything at-and-after it
//! unordered with respect to the crash. The tail is repaired in place
//! (good prefix rewritten atomically) so a recovered log appends cleanly.

use std::sync::Arc;

use odf_metrics::Stopwatch;
use odf_trace::{Hit, Point};

use crate::fs::{FsError, StorageFs};
use crate::stats;

/// Frame-header bytes preceding the payload: len + crc + seq.
pub const FRAME_HEADER: usize = 4 + 4 + 8;

/// Upper bound on one record's payload; a claimed length beyond this is
/// treated as corruption, not allocation advice.
pub const MAX_PAYLOAD: usize = 1 << 24;

/// When `commit` actually fsyncs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every commit fsyncs — every acknowledged write is durable
    /// (`innodb_flush_log_at_trx_commit=1`).
    Always,
    /// Fsync every `n` commits — bounded loss window, amortized cost
    /// (Redis `appendfsync everysec` in spirit).
    EveryN(u32),
}

/// Configuration for a [`Wal`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Rotate to a fresh segment once the active one exceeds this size.
    pub segment_bytes: u64,
    /// Group-commit policy.
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// One decoded WAL record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's sequence number (1-based, monotone, gap-free).
    pub seq: u64,
    /// The caller's payload bytes.
    pub payload: Vec<u8>,
}

/// What [`Wal::open`] found on disk.
#[derive(Clone, Debug, Default)]
pub struct WalScan {
    /// Every intact record, in sequence order.
    pub records: Vec<WalRecord>,
    /// Records discarded because they sat at or after a tear (best-effort
    /// count — the bytes were by definition not fully trustworthy).
    pub discarded: u64,
    /// Did the scan hit a torn/corrupt tail (and repair it)?
    pub torn: bool,
}

/// The live write-ahead log.
pub struct Wal {
    fs: Arc<dyn StorageFs>,
    cfg: WalConfig,
    /// Name of the active (last) segment.
    segment: String,
    /// Bytes currently in the active segment.
    segment_len: u64,
    /// Sequence number the next append will get.
    next_seq: u64,
    /// Highest sequence number known to have reached stable storage.
    durable_seq: u64,
    /// Records appended since the last fsync.
    pending_records: u64,
    /// Payload+frame bytes appended since the last fsync.
    pending_bytes: u64,
    /// Commits since the last fsync (for [`FsyncPolicy::EveryN`]).
    commits_since_sync: u32,
}

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

/// Parses `wal-<seq>.log` back to `<seq>`.
fn segment_first_seq(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Frames one record.
fn encode_record(seq: u64, payload: &[u8]) -> Vec<u8> {
    let len = 8 + payload.len();
    let mut buf = Vec::with_capacity(FRAME_HEADER + payload.len());
    buf.extend_from_slice(&(len as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes());
    crc.update(payload);
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// One frame-decode attempt: `Ok((seq, payload, frame_len))` or why not.
enum Decoded<'a> {
    Record(u64, &'a [u8], usize),
    /// Buffer ends cleanly at `at` (no bytes follow).
    End,
    /// Torn or corrupt at this offset.
    Bad,
}

fn decode_record(buf: &[u8], at: usize) -> Decoded<'_> {
    if at == buf.len() {
        return Decoded::End;
    }
    if buf.len() - at < FRAME_HEADER {
        return Decoded::Bad; // truncated header
    }
    let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("len 4")) as usize;
    let crc = u32::from_le_bytes(buf[at + 4..at + 8].try_into().expect("len 4"));
    if !(8..=8 + MAX_PAYLOAD).contains(&len) || at + 8 + len > buf.len() {
        return Decoded::Bad; // absurd length or truncated payload
    }
    let body = &buf[at + 8..at + 8 + len];
    let mut check = Crc32::new();
    check.update(body);
    if check.finish() != crc {
        return Decoded::Bad; // bit rot
    }
    let seq = u64::from_le_bytes(body[..8].try_into().expect("len 8"));
    Decoded::Record(seq, &body[8..], 8 + len)
}

impl Wal {
    /// Opens (or creates) the log in `fs`, scanning existing segments for
    /// intact records and repairing any torn tail in place.
    pub fn open(fs: Arc<dyn StorageFs>, cfg: WalConfig) -> Result<(Wal, WalScan), FsError> {
        let mut segments: Vec<(u64, String)> = fs
            .list()?
            .into_iter()
            .filter_map(|n| segment_first_seq(&n).map(|s| (s, n)))
            .collect();
        segments.sort_unstable();

        if segments.is_empty() {
            let segment = segment_name(1);
            fs.create(&segment)?;
            fs.sync_dir()?;
            return Ok((
                Wal {
                    fs,
                    cfg,
                    segment,
                    segment_len: 0,
                    next_seq: 1,
                    durable_seq: 0,
                    pending_records: 0,
                    pending_bytes: 0,
                    commits_since_sync: 0,
                },
                WalScan::default(),
            ));
        }

        let mut scan = WalScan::default();
        let mut expected_seq = segments[0].0;
        // (segment name, good-prefix length, total length) of the last
        // segment that contributed intact records — the repair target.
        let mut tail: Option<(String, usize, usize)> = None;
        let mut dead_segments: Vec<String> = Vec::new();

        for (first_seq, name) in segments.iter() {
            if scan.torn {
                // Everything after a tear is unreachable; count what the
                // dead segment claims to hold, then delete it.
                let buf = fs.read(name)?;
                scan.discarded += count_plausible_records(&buf);
                dead_segments.push(name.clone());
                continue;
            }
            if *first_seq != expected_seq {
                // A whole-segment gap (lost rename, missing file): treat
                // like a tear at the boundary.
                scan.torn = true;
                let buf = fs.read(name)?;
                scan.discarded += count_plausible_records(&buf);
                dead_segments.push(name.clone());
                continue;
            }
            let buf = fs.read(name)?;
            let mut at = 0usize;
            loop {
                match decode_record(&buf, at) {
                    Decoded::End => break,
                    Decoded::Record(seq, payload, frame_len) if seq == expected_seq => {
                        scan.records.push(WalRecord {
                            seq,
                            payload: payload.to_vec(),
                        });
                        expected_seq += 1;
                        at += frame_len;
                    }
                    // Wrong sequence number or torn bytes: stop here, never
                    // resync past the tear.
                    _ => {
                        scan.torn = true;
                        scan.discarded += count_plausible_records(&buf[at..]);
                        break;
                    }
                }
            }
            // The last segment that contributed records is the repair
            // target; later good segments overwrite this.
            tail = Some((name.clone(), at, buf.len()));
        }

        let (tail_name, good_len, total_len) = tail.expect("non-empty segment list has a tail");

        // Repair: rewrite the torn segment to its good prefix via
        // tmp+fsync+rename, drop unreachable segments, persist the new
        // directory shape.
        if good_len != total_len || !dead_segments.is_empty() {
            if good_len != total_len {
                let good = fs.read(&tail_name)?[..good_len].to_vec();
                let tmp = format!("{tail_name}.tmp");
                fs.create(&tmp)?;
                fs.append(&tmp, &good)?;
                fs.fsync(&tmp)?;
                fs.rename(&tmp, &tail_name)?;
            }
            for dead in &dead_segments {
                fs.remove(dead)?;
            }
            fs.sync_dir()?;
        }

        let wal = Wal {
            fs,
            cfg,
            segment: tail_name,
            segment_len: good_len as u64,
            next_seq: expected_seq,
            durable_seq: expected_seq - 1,
            pending_records: 0,
            pending_bytes: 0,
            commits_since_sync: 0,
        };
        Ok((wal, scan))
    }

    /// Appends one record, rotating segments as needed. Returns the
    /// record's sequence number. **Not yet durable** — call [`Wal::commit`]
    /// (or [`Wal::sync`]) and check its verdict.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, FsError> {
        let frame = encode_record(self.next_seq, payload);
        if self.segment_len > 0 && self.segment_len + frame.len() as u64 > self.cfg.segment_bytes {
            self.rotate()?;
        }
        self.fs.append(&self.segment, &frame)?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.segment_len += frame.len() as u64;
        self.pending_records += 1;
        self.pending_bytes += frame.len() as u64;
        stats::stats().wal_appends.bump();
        stats::stats().wal_bytes_appended.add(frame.len() as u64);
        stats::note_appended(seq);
        Ok(seq)
    }

    /// Seals the active segment (fsync — its records become durable) and
    /// starts a fresh one named after the next sequence number.
    fn rotate(&mut self) -> Result<(), FsError> {
        self.sync()?;
        self.segment = segment_name(self.next_seq);
        self.fs.create(&self.segment)?;
        self.fs.sync_dir()?;
        self.segment_len = 0;
        stats::stats().wal_segments_rotated.bump();
        Ok(())
    }

    /// Group-commit point: applies the fsync policy and reports whether
    /// everything appended so far is now durable.
    pub fn commit(&mut self) -> Result<bool, FsError> {
        stats::stats().wal_commits.bump();
        match self.cfg.fsync {
            FsyncPolicy::Always => {
                self.sync()?;
                Ok(true)
            }
            FsyncPolicy::EveryN(n) => {
                self.commits_since_sync += 1;
                if self.commits_since_sync >= n.max(1) {
                    self.sync()?;
                    Ok(true)
                } else {
                    Ok(self.pending_records == 0)
                }
            }
        }
    }

    /// Forces everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<(), FsError> {
        self.commits_since_sync = 0;
        if self.pending_records == 0 {
            return Ok(());
        }
        let sw = Stopwatch::start();
        self.fs.fsync(&self.segment)?;
        let latency_ns = sw.elapsed_ns();
        self.durable_seq = self.next_seq - 1;
        stats::note_durable(self.durable_seq);
        let (bytes, records) = (self.pending_bytes, self.pending_records);
        let fsync = Hit::new(
            Point::WalFsync,
            &[bytes, records, latency_ns, self.durable_seq],
        );
        odf_trace::emit_counted(&stats::stats().wal_fsyncs, fsync);
        self.pending_records = 0;
        self.pending_bytes = 0;
        Ok(())
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Highest sequence number appended (durable or not); 0 if none.
    pub fn appended_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Drops whole segments whose every record is `<= seq` (a snapshot
    /// covers them). The active segment is never removed.
    pub fn truncate_through(&mut self, seq: u64) -> Result<(), FsError> {
        let mut segments: Vec<(u64, String)> = self
            .fs
            .list()?
            .into_iter()
            .filter_map(|n| segment_first_seq(&n).map(|s| (s, n)))
            .collect();
        segments.sort_unstable();
        let mut removed = 0u64;
        // Segment i spans [first_i, first_{i+1} - 1]; the last segment is
        // active and stays.
        for w in segments.windows(2) {
            let (_, ref name) = w[0];
            let (next_first, _) = w[1];
            if next_first - 1 <= seq {
                self.fs.remove(name)?;
                removed += 1;
            }
        }
        if removed > 0 {
            self.fs.sync_dir()?;
            stats::stats().wal_segments_truncated.add(removed);
        }
        Ok(())
    }
}

/// Best-effort count of frames in unreachable bytes, for the discarded
/// tally in [`WalScan`]. Walks claimed lengths without trusting CRCs or
/// sequence numbers; stops at the first structurally absurd frame.
fn count_plausible_records(buf: &[u8]) -> u64 {
    let mut n = 0u64;
    let mut at = 0usize;
    while buf.len() - at >= FRAME_HEADER {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("len 4")) as usize;
        let plausible_len = (8..=8 + MAX_PAYLOAD).contains(&len);
        if !plausible_len || at + 8 + len > buf.len() {
            // Torn mid-frame still means a record's bytes were lost.
            if plausible_len {
                n += 1;
            }
            break;
        }
        n += 1;
        at += 8 + len;
    }
    n
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), bytewise table-free — the
/// WAL frames are small and open-time scanning is not a hot path.
struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Self {
        Crc32 { state: !0 }
    }

    fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.state ^= u32::from(b);
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(self.state & 1);
                self.state = (self.state >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }

    fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CrashFs;

    fn mem() -> Arc<dyn StorageFs> {
        Arc::new(CrashFs::new())
    }

    fn tiny_cfg() -> WalConfig {
        WalConfig {
            segment_bytes: 64,
            fsync: FsyncPolicy::Always,
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 — the standard check value.
        let mut c = Crc32::new();
        c.update(b"123456789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    #[test]
    fn append_commit_reopen_round_trips() {
        let fs = mem();
        let (mut wal, scan) = Wal::open(Arc::clone(&fs), WalConfig::default()).unwrap();
        assert!(scan.records.is_empty());
        for i in 0..10u8 {
            wal.append(&[i; 3]).unwrap();
            assert!(wal.commit().unwrap());
        }
        assert_eq!(wal.durable_seq(), 10);
        let (wal2, scan2) = Wal::open(fs, WalConfig::default()).unwrap();
        assert_eq!(scan2.records.len(), 10);
        assert!(!scan2.torn);
        assert_eq!(scan2.records[4].seq, 5);
        assert_eq!(scan2.records[4].payload, vec![4u8; 3]);
        assert_eq!(wal2.appended_seq(), 10);
    }

    #[test]
    fn rotation_seals_old_segments_and_truncation_drops_them() {
        let fs = mem();
        let (mut wal, _) = Wal::open(Arc::clone(&fs), tiny_cfg()).unwrap();
        for i in 0..20u8 {
            wal.append(&[i; 16]).unwrap();
            wal.commit().unwrap();
        }
        let segs = |fs: &Arc<dyn StorageFs>| {
            fs.list()
                .unwrap()
                .into_iter()
                .filter(|n| segment_first_seq(n).is_some())
                .count()
        };
        assert!(segs(&fs) > 1, "tiny segments must have rotated");
        wal.truncate_through(wal.appended_seq()).unwrap();
        assert_eq!(segs(&fs), 1, "only the active segment survives");
        // Records in the active segment still replay.
        let (_, scan) = Wal::open(fs, tiny_cfg()).unwrap();
        assert!(scan.records.iter().all(|r| r.seq > 0));
        assert!(!scan.torn);
    }

    #[test]
    fn every_n_policy_reports_durability_honestly() {
        let fs = mem();
        let (mut wal, _) = Wal::open(
            fs,
            WalConfig {
                segment_bytes: 1 << 20,
                fsync: FsyncPolicy::EveryN(3),
            },
        )
        .unwrap();
        wal.append(b"a").unwrap();
        assert!(!wal.commit().unwrap());
        wal.append(b"b").unwrap();
        assert!(!wal.commit().unwrap());
        wal.append(b"c").unwrap();
        assert!(wal.commit().unwrap());
        assert_eq!(wal.durable_seq(), 3);
        // An explicit sync makes the record durable between fsync points,
        // and a commit with nothing pending then reports durable.
        wal.append(b"d").unwrap();
        assert!(!wal.commit().unwrap());
        wal.sync().unwrap();
        assert_eq!(wal.durable_seq(), 4);
        assert!(wal.commit().unwrap());
    }

    // -- satellite: table-driven framing corruption tests ------------------

    /// Builds a one-segment log holding `records`, then lets `mutate`
    /// damage the raw bytes, reopens, and returns the scan.
    fn scan_after(records: &[&[u8]], mutate: impl FnOnce(&mut Vec<u8>)) -> WalScan {
        let fs = mem();
        let (mut wal, _) = Wal::open(Arc::clone(&fs), WalConfig::default()).unwrap();
        for r in records {
            wal.append(r).unwrap();
            wal.commit().unwrap();
        }
        drop(wal);
        let seg = segment_name(1);
        let mut bytes = fs.read(&seg).unwrap();
        mutate(&mut bytes);
        // Rewrite the segment with the damaged bytes.
        fs.create(&seg).unwrap();
        fs.append(&seg, &bytes).unwrap();
        fs.fsync(&seg).unwrap();
        let (_, scan) = Wal::open(fs, WalConfig::default()).unwrap();
        scan
    }

    #[test]
    fn framing_damage_table() {
        struct Case {
            name: &'static str,
            records: &'static [&'static [u8]],
            /// (offset from end to truncate at) or byte index to flip.
            damage: Damage,
            expect_good: usize,
            expect_torn: bool,
        }
        enum Damage {
            /// Drop the last `n` bytes.
            TruncateTail(usize),
            /// XOR byte at index with 0xFF.
            FlipByte(usize),
            /// No damage.
            None,
        }
        // Frame for a 5-byte payload: 16 header + 5 = 21 bytes.
        let cases = [
            Case {
                name: "intact log scans fully",
                records: &[b"aaaaa", b"bbbbb"],
                damage: Damage::None,
                expect_good: 2,
                expect_torn: false,
            },
            Case {
                name: "truncated header",
                records: &[b"aaaaa", b"bbbbb"],
                // Second frame loses all but 3 header bytes.
                damage: Damage::TruncateTail(18),
                expect_good: 1,
                expect_torn: true,
            },
            Case {
                name: "truncated payload",
                records: &[b"aaaaa", b"bbbbb"],
                // Second frame keeps its header but loses payload bytes.
                damage: Damage::TruncateTail(2),
                expect_good: 1,
                expect_torn: true,
            },
            Case {
                name: "bit-flipped crc",
                records: &[b"aaaaa", b"bbbbb"],
                // Flip a CRC byte of the second frame (offset 21 + 4).
                damage: Damage::FlipByte(25),
                expect_good: 1,
                expect_torn: true,
            },
            Case {
                name: "bit-flipped payload",
                records: &[b"aaaaa", b"bbbbb"],
                // Flip a payload byte of the first frame.
                damage: Damage::FlipByte(18),
                expect_good: 0,
                expect_torn: true,
            },
        ];
        for case in cases {
            let scan = scan_after(case.records, |bytes| match case.damage {
                Damage::TruncateTail(n) => {
                    let keep = bytes.len() - n;
                    bytes.truncate(keep);
                }
                Damage::FlipByte(i) => bytes[i] ^= 0xFF,
                Damage::None => {}
            });
            assert_eq!(
                scan.records.len(),
                case.expect_good,
                "case '{}': good-record count",
                case.name
            );
            assert_eq!(
                scan.torn, case.expect_torn,
                "case '{}': torn flag",
                case.name
            );
        }
    }

    #[test]
    fn valid_record_after_a_tear_is_never_resynced() {
        // Damage record 2 of 3; record 3 is fully intact but must NOT be
        // returned — replaying it would apply a write whose predecessor
        // was lost, breaking prefix consistency.
        let scan = scan_after(&[b"aaaaa", b"bbbbb", b"ccccc"], |bytes| {
            bytes[21 + 4] ^= 0xFF; // CRC byte of frame 2
        });
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].payload, b"aaaaa");
        assert!(scan.torn);
        assert!(
            scan.discarded >= 2,
            "both the torn record and the intact one after it count as discarded, got {}",
            scan.discarded
        );
    }

    #[test]
    fn torn_tail_is_repaired_and_appendable() {
        let fs = mem();
        let (mut wal, _) = Wal::open(Arc::clone(&fs), WalConfig::default()).unwrap();
        wal.append(b"one").unwrap();
        wal.commit().unwrap();
        wal.append(b"two").unwrap();
        wal.commit().unwrap();
        drop(wal);
        // Tear the tail mid-frame.
        let seg = segment_name(1);
        let bytes = fs.read(&seg).unwrap();
        let torn = bytes[..bytes.len() - 2].to_vec();
        fs.create(&seg).unwrap();
        fs.append(&seg, &torn).unwrap();
        fs.fsync(&seg).unwrap();
        // First reopen repairs; the log accepts new appends at seq 2.
        let (mut wal, scan) = Wal::open(Arc::clone(&fs), WalConfig::default()).unwrap();
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(wal.append(b"two again").unwrap(), 2);
        wal.commit().unwrap();
        drop(wal);
        // Second reopen is clean: repair made the scan idempotent.
        let (_, scan2) = Wal::open(fs, WalConfig::default()).unwrap();
        assert!(!scan2.torn);
        assert_eq!(scan2.records.len(), 2);
        assert_eq!(scan2.records[1].payload, b"two again");
    }

    #[test]
    fn missing_middle_segment_discards_later_ones() {
        let fs = mem();
        let (mut wal, _) = Wal::open(Arc::clone(&fs), tiny_cfg()).unwrap();
        for i in 0..20u8 {
            wal.append(&[i; 16]).unwrap();
            wal.commit().unwrap();
        }
        drop(wal);
        let mut segs: Vec<String> = fs
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| segment_first_seq(n).is_some())
            .collect();
        segs.sort();
        assert!(segs.len() >= 3, "need >=3 segments, got {}", segs.len());
        fs.remove(&segs[1]).unwrap();
        fs.sync_dir().unwrap();
        let first_of_second = segment_first_seq(&segs[1]).unwrap();
        let (_, scan) = Wal::open(fs, tiny_cfg()).unwrap();
        assert!(scan.torn);
        assert!(scan.discarded > 0);
        assert!(
            scan.records.iter().all(|r| r.seq < first_of_second),
            "no record past the gap may survive"
        );
    }
}
