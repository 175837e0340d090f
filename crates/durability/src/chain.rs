//! The on-disk snapshot chain store.
//!
//! Each bgsave publishes one [`SnapshotImage`] — full or delta — as
//! `snap-<epoch>-<kind>.img`, written tmp-first, fsynced, then renamed
//! into place, followed by an atomic republish of the `manifest` file that
//! lists the images recovery may read (epoch, kind, parent epoch, length,
//! checksum, the WAL sequence number the image covers, and opaque caller
//! metadata). The publish order is the recovery invariant: an image is
//! *reachable* only once the manifest naming it is durable, and the caller
//! truncates the WAL only after `publish` returns — so at every crash point
//! either the old chain + full WAL or the new chain + (possibly truncated)
//! WAL recovers.
//!
//! The manifest is a list of generations: a full row starts one, and a
//! delta row applies on the row before it. A full-image publish keeps the
//! generation before it and drops older ones, and [`ChainStore::prune`]
//! then removes the files no row names. The manifest is line-oriented text
//! with a trailing whole-file checksum:
//!
//! ```text
//! odf-chain v1
//! img <epoch> <full|delta> <parent_epoch> <file> <len> <fnv64> <wal_seq> <meta-hex>
//! sum <fnv64-of-all-previous-lines>
//! ```

use std::sync::Arc;

use odf_metrics::Stopwatch;
use odf_snapshot::{materialize, ImageKind, SnapshotImage};
use odf_trace::{Hit, Point};

use crate::fs::{FsError, StorageFs};
use crate::stats;

/// Manifest file name.
pub const MANIFEST: &str = "manifest";

/// One manifest row: a published image and how to validate it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Checkpoint epoch the image captures.
    pub epoch: u64,
    /// Full or delta.
    pub kind: ImageKind,
    /// For a delta, the epoch of the row before it (== `epoch` for full).
    pub parent_epoch: u64,
    /// Image file name.
    pub file: String,
    /// Expected file length.
    pub len: u64,
    /// FNV-1a of the file bytes.
    pub checksum: u64,
    /// Highest WAL sequence number already reflected in the image; replay
    /// resumes after it.
    pub wal_seq: u64,
    /// Opaque caller metadata (the kvstore stores heap geometry here).
    pub meta: Vec<u8>,
}

/// The state the store rebuilt from its images.
#[derive(Clone, Debug)]
pub struct LoadedChain {
    /// The materialized (always full) image.
    pub image: SnapshotImage,
    /// The last row folded in: its `wal_seq` is where replay starts.
    pub tip: ManifestEntry,
    /// Images folded (1 = a bare full image).
    pub links: usize,
    /// Rows newer than the tip, left out because an image did not load.
    pub skipped: usize,
}

/// The chain store: publish side and recovery side.
pub struct ChainStore {
    fs: Arc<dyn StorageFs>,
    entries: Vec<ManifestEntry>,
    /// True when a manifest existed but failed validation; its entries
    /// were ignored (treated as no chain) rather than trusted.
    manifest_corrupt: bool,
}

impl ChainStore {
    /// Opens the store, parsing the manifest if one is durable. Reads
    /// only: files a crash left unnamed wait for the next prune.
    pub fn open(fs: Arc<dyn StorageFs>) -> Result<ChainStore, FsError> {
        let (entries, manifest_corrupt) = if fs.exists(MANIFEST)? {
            match parse_manifest(&fs.read(MANIFEST)?) {
                Some(entries) => (entries, false),
                None => (Vec::new(), true),
            }
        } else {
            (Vec::new(), false)
        };
        Ok(ChainStore {
            fs,
            entries,
            manifest_corrupt,
        })
    }

    /// Did open find a manifest it could not trust?
    pub fn manifest_was_corrupt(&self) -> bool {
        self.manifest_corrupt
    }

    /// The current manifest rows, epoch-ascending.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// The newest generation: the rows from the last full image on.
    pub fn generation(&self) -> &[ManifestEntry] {
        &self.entries[last_full(&self.entries)..]
    }

    /// Atomically publishes one image: tmp-write + fsync + rename the
    /// image file, then republish the manifest the same way, then
    /// `sync_dir`; the rows in memory change only after that. Rows at or
    /// after the image's epoch are dropped (a history recovery did not
    /// restore), a full image drops every generation before the previous
    /// one, and a delta must apply on the last row left. Returns the entry
    /// written.
    pub fn publish(
        &mut self,
        image: &SnapshotImage,
        wal_seq: u64,
        meta: &[u8],
    ) -> Result<ManifestEntry, FsError> {
        let sw = Stopwatch::start();
        let bytes = image.to_bytes();
        let file = format!("snap-{:010}-{}.img", image.epoch, kind_name(image.kind));
        let tmp = format!("{file}.tmp");
        self.fs.create(&tmp)?;
        self.fs.append(&tmp, &bytes)?;
        self.fs.fsync(&tmp)?;
        self.fs.rename(&tmp, &file)?;

        let entry = ManifestEntry {
            epoch: image.epoch,
            kind: image.kind,
            parent_epoch: image.parent_epoch,
            file,
            len: bytes.len() as u64,
            checksum: fnv1a(&bytes),
            wal_seq,
            meta: meta.to_vec(),
        };
        let kept = self.entries.partition_point(|e| e.epoch < entry.epoch);
        let mut rows = self.entries[..kept].to_vec();
        if entry.kind == ImageKind::Full {
            rows.drain(..last_full(&rows));
        }
        rows.push(entry.clone());
        self.write_manifest(&rows)?;
        self.fs.sync_dir()?;
        self.entries = rows;

        let len = bytes.len() as u64;
        let publish = Hit::new(Point::SnapshotPublish, &[image.epoch, len, sw.elapsed_ns()]);
        odf_trace::emit_counted(&stats::stats().snapshots_published, publish);
        stats::stats().snapshot_bytes_published.add(len);
        Ok(entry)
    }

    fn write_manifest(&self, rows: &[ManifestEntry]) -> Result<(), FsError> {
        let body = render_manifest(rows);
        let tmp = format!("{MANIFEST}.tmp");
        self.fs.create(&tmp)?;
        self.fs.append(&tmp, body.as_bytes())?;
        self.fs.fsync(&tmp)?;
        self.fs.rename(&tmp, MANIFEST)?;
        Ok(())
    }

    /// Removes every `snap-*` file the manifest does not name: the
    /// generation a full-image publish retired, and tmp files a crash
    /// left. The caller runs it after a full-image publish. `publish`
    /// never does, so a file goes only once a durable manifest has
    /// stopped naming it; `open` never does, so recovery only reads.
    pub fn prune(&self) -> Result<(), FsError> {
        let mut removed = false;
        for name in self.fs.list()? {
            if name.starts_with("snap-") && !self.entries.iter().any(|e| e.file == name) {
                self.fs.remove(&name)?;
                removed = true;
            }
        }
        if removed {
            self.fs.sync_dir()?;
        }
        Ok(())
    }

    /// Rebuilds the newest state the images allow, in one forward fold:
    /// it starts at the newest full row whose file loads, applies the
    /// delta rows after it one at a time, and stops at the first that does
    /// not load or apply. Each image file is read at most once, and at
    /// most one delta is held beside the state.
    pub fn load_best(&self) -> Result<Option<LoadedChain>, FsError> {
        let rows = &self.entries;
        let mut end = rows.len();
        let (start, mut image) = loop {
            let at = last_full(&rows[..end]);
            if at == end {
                stats::stats().recovery_rows_skipped.add(rows.len() as u64);
                return Ok(None);
            }
            if let Some(base) = self.read_image(&rows[at])? {
                break (at, base);
            }
            end = at;
        };
        let mut tip = start;
        for row in rows[start + 1..]
            .iter()
            .take_while(|r| r.kind == ImageKind::Delta)
        {
            let delta = self.read_image(row)?;
            let Some(next) = delta.and_then(|d| materialize(&image, &[&d]).ok()) else {
                break;
            };
            image = next;
            tip += 1;
        }
        let skipped = rows.len() - 1 - tip;
        stats::stats().recovery_rows_skipped.add(skipped as u64);
        Ok(Some(LoadedChain {
            image,
            tip: rows[tip].clone(),
            links: tip - start + 1,
            skipped,
        }))
    }

    /// Reads and validates one image file; `Ok(None)` when missing,
    /// mis-sized, checksum-mismatched, undecodable, or not the image the
    /// manifest row claims.
    fn read_image(&self, entry: &ManifestEntry) -> Result<Option<SnapshotImage>, FsError> {
        if !self.fs.exists(&entry.file)? {
            return Ok(None);
        }
        let bytes = self.fs.read(&entry.file)?;
        if bytes.len() as u64 != entry.len || fnv1a(&bytes) != entry.checksum {
            return Ok(None);
        }
        Ok(SnapshotImage::from_bytes(&bytes).ok().filter(|img| {
            (img.epoch, img.kind, img.parent_epoch) == (entry.epoch, entry.kind, entry.parent_epoch)
        }))
    }
}

/// Index of the last full row in `rows`, or `rows.len()` when none is.
fn last_full(rows: &[ManifestEntry]) -> usize {
    rows.iter()
        .rposition(|e| e.kind == ImageKind::Full)
        .unwrap_or(rows.len())
}

fn kind_name(kind: ImageKind) -> &'static str {
    match kind {
        ImageKind::Full => "full",
        ImageKind::Delta => "delta",
    }
}

fn render_manifest(entries: &[ManifestEntry]) -> String {
    let mut body = String::from("odf-chain v1\n");
    for e in entries {
        body.push_str(&format!(
            "img {} {} {} {} {} {:016x} {} {}\n",
            e.epoch,
            kind_name(e.kind),
            e.parent_epoch,
            e.file,
            e.len,
            e.checksum,
            e.wal_seq,
            hex_encode(&e.meta),
        ));
    }
    let sum = fnv1a(body.as_bytes());
    body.push_str(&format!("sum {sum:016x}\n"));
    body
}

/// Parses and validates a manifest; `None` on any structural or checksum
/// failure, or rows that are not a list of generations (the caller treats
/// that as "no chain").
fn parse_manifest(bytes: &[u8]) -> Option<Vec<ManifestEntry>> {
    let text = std::str::from_utf8(bytes).ok()?;
    let sum_at = text.rfind("sum ")?;
    let (body, sum_line) = text.split_at(sum_at);
    let claimed = u64::from_str_radix(sum_line.trim().strip_prefix("sum ")?, 16).ok()?;
    if fnv1a(body.as_bytes()) != claimed {
        return None;
    }
    let mut lines = body.lines();
    if lines.next()? != "odf-chain v1" {
        return None;
    }
    let mut entries: Vec<ManifestEntry> = Vec::new();
    for line in lines {
        let mut f = line.split(' ');
        if f.next()? != "img" {
            return None;
        }
        let epoch = f.next()?.parse().ok()?;
        let kind = match f.next()? {
            "full" => ImageKind::Full,
            "delta" => ImageKind::Delta,
            _ => return None,
        };
        let parent_epoch = f.next()?.parse().ok()?;
        // A full row starts a generation; a delta applies on the row
        // before it. Epochs strictly increase.
        let prev = entries.last().map(|e| e.epoch);
        let follows = match kind {
            ImageKind::Full => parent_epoch == epoch,
            ImageKind::Delta => prev == Some(parent_epoch),
        };
        if !follows || prev.is_some_and(|p| p >= epoch) {
            return None;
        }
        let file = f.next()?.to_string();
        let len = f.next()?.parse().ok()?;
        let checksum = u64::from_str_radix(f.next()?, 16).ok()?;
        let wal_seq = f.next()?.parse().ok()?;
        let meta = hex_decode(f.next()?)?;
        if f.next().is_some() {
            return None;
        }
        entries.push(ManifestEntry {
            epoch,
            kind,
            parent_epoch,
            file,
            len,
            checksum,
            wal_seq,
            meta,
        });
    }
    Some(entries)
}

fn hex_encode(data: &[u8]) -> String {
    if data.is_empty() {
        return "-".to_string();
    }
    data.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s == "-" {
        return Some(Vec::new());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

/// FNV-1a, the same hash the snapshot image format uses for its body.
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::CrashFs;
    use odf_snapshot::{PageRecord, VmaRecord};

    const PAGE: usize = 4096;

    fn page(byte: u8) -> Vec<u8> {
        vec![byte; PAGE]
    }

    pub(super) fn full(epoch: u64, byte: u8) -> SnapshotImage {
        SnapshotImage {
            kind: ImageKind::Full,
            epoch,
            parent_epoch: epoch,
            vmas: vec![VmaRecord {
                start: 0x1000_0000,
                end: 0x1000_0000 + PAGE as u64 * 4,
                prot: odf_vm_prot(),
                shared: false,
                huge: false,
                file_backed: false,
            }],
            dirty_ranges: vec![],
            pages: vec![PageRecord {
                va: 0x1000_0000,
                payload: Some(0),
            }],
            payloads: vec![page(byte)],
        }
    }

    pub(super) fn delta(epoch: u64, parent: u64, byte: u8) -> SnapshotImage {
        SnapshotImage {
            kind: ImageKind::Delta,
            epoch,
            parent_epoch: parent,
            vmas: full(epoch, 0).vmas,
            dirty_ranges: vec![],
            pages: vec![PageRecord {
                va: 0x1000_1000,
                payload: Some(0),
            }],
            payloads: vec![page(byte)],
        }
    }

    fn odf_vm_prot() -> odf_vm::Prot {
        odf_vm::Prot::READ_WRITE
    }

    fn store() -> (Arc<CrashFs>, ChainStore) {
        let fs = Arc::new(CrashFs::new());
        let cs = ChainStore::open(Arc::clone(&fs) as Arc<dyn StorageFs>).unwrap();
        (fs, cs)
    }

    /// Manifest rows `(epoch, kind, parent_epoch)`, with made-up files.
    pub(super) fn rows(spec: &[(u64, ImageKind, u64)]) -> Vec<ManifestEntry> {
        spec.iter()
            .map(|&(epoch, kind, parent_epoch)| ManifestEntry {
                epoch,
                kind,
                parent_epoch,
                file: format!("snap-{epoch:010}-{}.img", kind_name(kind)),
                len: 1234,
                checksum: 0xDEAD_BEEF,
                wal_seq: 99,
                meta: vec![0, 1, 254, 255],
            })
            .collect()
    }

    /// Flips one byte in the middle of a file.
    pub(super) fn corrupt(fs: &CrashFs, file: &str) {
        let mut bytes = fs.read(file).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs.create(file).unwrap();
        fs.append(file, &bytes).unwrap();
        fs.fsync(file).unwrap();
    }

    fn snap_files(fs: &CrashFs) -> Vec<String> {
        let mut names = fs.list().unwrap();
        names.retain(|n| n.starts_with("snap-"));
        names
    }

    #[test]
    fn a_full_publish_keeps_one_generation_before_it_and_prune_drops_the_rest() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        cs.publish(&delta(1, 0, 2), 20, b"").unwrap();
        cs.publish(&full(2, 3), 30, b"").unwrap();
        cs.publish(&delta(3, 2, 4), 40, b"").unwrap();
        cs.publish(&full(4, 5), 50, b"").unwrap();
        let epochs: Vec<u64> = cs.entries().iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, [2, 3, 4]);
        assert_eq!(cs.generation().len(), 1);
        // Publishing removed nothing: the retired files wait for a prune.
        assert_eq!(snap_files(&fs).len(), 5);
        cs.prune().unwrap();
        let named: Vec<String> = cs.entries().iter().map(|e| e.file.clone()).collect();
        assert_eq!(snap_files(&fs), named);
        // The removal is durable, and the kept chain still loads.
        let after = Arc::new(fs.crash());
        assert_eq!(snap_files(&after), named);
        let cs2 = ChainStore::open(after as Arc<dyn StorageFs>).unwrap();
        assert_eq!(cs2.load_best().unwrap().unwrap().tip.epoch, 4);
    }

    #[test]
    fn open_leaves_unnamed_files_to_the_next_prune() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        // A publish that crashed before its manifest left its image behind.
        fs.create("snap-0000000001-delta.img.tmp").unwrap();
        fs.fsync("snap-0000000001-delta.img.tmp").unwrap();
        let cs2 = ChainStore::open(Arc::clone(&fs) as Arc<dyn StorageFs>).unwrap();
        cs2.load_best().unwrap().unwrap();
        assert_eq!(snap_files(&fs).len(), 2, "open and load only read");
        cs2.prune().unwrap();
        assert_eq!(snap_files(&fs), ["snap-0000000000-full.img"]);
    }

    #[test]
    fn publish_drops_the_rows_at_or_after_its_epoch() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        cs.publish(&delta(1, 0, 2), 20, b"").unwrap();
        cs.publish(&delta(2, 1, 3), 30, b"").unwrap();
        // Recovery restored epoch 0, so the next image is a full one at 1.
        cs.publish(&full(1, 9), 15, b"").unwrap();
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        let kinds: Vec<(u64, ImageKind)> =
            cs2.entries().iter().map(|e| (e.epoch, e.kind)).collect();
        assert_eq!(kinds, [(0, ImageKind::Full), (1, ImageKind::Full)]);
        let loaded = cs2.load_best().unwrap().unwrap();
        assert_eq!((loaded.tip.epoch, loaded.links), (1, 1));
        assert_eq!(loaded.image.payloads[0], page(9));
    }

    #[test]
    fn a_corrupt_newest_full_image_falls_back_to_the_generation_before() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        cs.publish(&delta(1, 0, 2), 20, b"").unwrap();
        let newest = cs.publish(&full(2, 3), 30, b"").unwrap();
        cs.publish(&delta(3, 2, 4), 40, b"").unwrap();
        corrupt(&fs, &newest.file);
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        let loaded = cs2.load_best().unwrap().unwrap();
        assert_eq!((loaded.tip.epoch, loaded.links, loaded.skipped), (1, 2, 2));
        assert_eq!(loaded.tip.wal_seq, 20);
    }

    #[test]
    fn publish_then_load_round_trips() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 7), 5, b"meta!").unwrap();
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        let loaded = cs2.load_best().unwrap().expect("chain present");
        assert_eq!(loaded.tip.epoch, 0);
        assert_eq!(loaded.tip.wal_seq, 5);
        assert_eq!(loaded.tip.meta, b"meta!");
        assert_eq!(loaded.links, 1);
        assert_eq!(loaded.image.payloads[0], page(7));
    }

    #[test]
    fn newest_materializable_chain_wins() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        cs.publish(&delta(1, 0, 2), 20, b"").unwrap();
        cs.publish(&delta(2, 1, 3), 30, b"").unwrap();
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        let loaded = cs2.load_best().unwrap().unwrap();
        assert_eq!(loaded.tip.epoch, 2);
        assert_eq!(loaded.tip.wal_seq, 30);
        assert_eq!(loaded.links, 3);
    }

    #[test]
    fn corrupt_tip_falls_back_to_previous_chain() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        let entry = cs.publish(&delta(1, 0, 2), 20, b"").unwrap();
        // Flip a byte in the delta's file: the fold stops before it.
        corrupt(&fs, &entry.file);
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        let loaded = cs2.load_best().unwrap().unwrap();
        assert_eq!(loaded.tip.epoch, 0, "fell back to the intact full image");
        assert_eq!(loaded.skipped, 1);
    }

    #[test]
    fn corrupt_manifest_is_no_chain_not_a_crash() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        let mut m = fs.read(MANIFEST).unwrap();
        let n = m.len();
        m[n - 3] ^= 0xFF; // damage the checksum line
        fs.create(MANIFEST).unwrap();
        fs.append(MANIFEST, &m).unwrap();
        fs.fsync(MANIFEST).unwrap();
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        assert!(cs2.manifest_was_corrupt());
        assert!(cs2.load_best().unwrap().is_none());
    }

    #[test]
    fn missing_parent_image_skips_the_chain() {
        let (fs, mut cs) = store();
        let base = cs.publish(&full(0, 1), 10, b"").unwrap();
        cs.publish(&delta(1, 0, 2), 20, b"").unwrap();
        // The tip's parent file vanishes (e.g. a stray cleanup): the delta
        // chain can no longer materialize, and nothing else survives
        // either because the full image IS the missing file.
        fs.remove(&base.file).unwrap();
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        assert!(
            cs2.load_best().unwrap().is_none(),
            "no materializable chain"
        );
    }

    #[test]
    fn corrupt_parent_image_falls_back_to_an_older_tip() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        let mid = cs.publish(&full(1, 9), 15, b"").unwrap();
        cs.publish(&delta(2, 1, 2), 20, b"").unwrap();
        // Damage the *parent* of the newest tip, not the tip itself: the
        // epoch-2 chain dies at link 2, and recovery lands on epoch 0.
        corrupt(&fs, &mid.file);
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        let loaded = cs2.load_best().unwrap().unwrap();
        assert_eq!(loaded.tip.epoch, 0);
        assert_eq!(loaded.skipped, 2, "the rows past the tip were counted");
    }

    #[test]
    fn duplicate_epoch_republish_replaces_the_row() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 1), 10, b"old").unwrap();
        cs.publish(&full(0, 8), 12, b"new").unwrap();
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        assert_eq!(
            cs2.entries()
                .iter()
                .filter(|e| e.epoch == 0 && e.kind == ImageKind::Full)
                .count(),
            1,
            "same epoch+kind must not accumulate rows"
        );
        let loaded = cs2.load_best().unwrap().unwrap();
        assert_eq!(loaded.image.payloads[0], page(8), "last publish wins");
        assert_eq!(loaded.tip.wal_seq, 12);
        assert_eq!(loaded.tip.meta, b"new");
    }

    #[test]
    fn chain_longer_than_eight_links_round_trips() {
        let (fs, mut cs) = store();
        cs.publish(&full(0, 0), 0, b"").unwrap();
        for e in 1..=10u64 {
            cs.publish(&delta(e, e - 1, e as u8), e * 10, b"").unwrap();
        }
        let cs2 = ChainStore::open(fs as Arc<dyn StorageFs>).unwrap();
        let loaded = cs2.load_best().unwrap().unwrap();
        assert_eq!(loaded.tip.epoch, 10);
        assert_eq!(loaded.links, 11);
        assert_eq!(loaded.tip.wal_seq, 100);
        // The materialized image carries the youngest delta's payload.
        let tip_page = loaded
            .image
            .pages
            .iter()
            .find(|p| p.va == 0x1000_1000)
            .and_then(|p| p.payload)
            .expect("delta page survives the collapse");
        assert_eq!(loaded.image.payloads[tip_page as usize], page(10));
    }

    #[test]
    fn manifest_round_trips_meta_bytes() {
        let entries = rows(&[(2, ImageKind::Full, 2), (3, ImageKind::Delta, 2)]);
        let parsed = parse_manifest(render_manifest(&entries).as_bytes()).unwrap();
        assert_eq!(parsed, entries);
        // Empty meta round-trips through the "-" placeholder.
        let mut e2 = entries;
        e2[1].meta.clear();
        let parsed2 = parse_manifest(render_manifest(&e2).as_bytes()).unwrap();
        assert_eq!(parsed2, e2);
    }
}

#[cfg(test)]
mod guard {
    use std::collections::HashMap;
    use std::sync::Mutex;

    use super::tests::{corrupt, rows};
    use super::*;
    use crate::fs::CrashFs;

    #[test]
    fn a_manifest_parses_only_as_a_list_of_generations() {
        use ImageKind::{Delta, Full};
        let parses = |spec: &[(u64, ImageKind, u64)]| {
            parse_manifest(render_manifest(&rows(spec)).as_bytes()).is_some()
        };
        assert!(parses(&[
            (0, Full, 0),
            (1, Delta, 0),
            (2, Full, 2),
            (3, Delta, 2)
        ]));
        // A delta that does not apply on the row before it.
        assert!(!parses(&[(0, Full, 0), (1, Delta, 0), (2, Delta, 0)]));
        assert!(!parses(&[(0, Full, 0), (2, Delta, 1)]));
        assert!(!parses(&[(1, Delta, 0)]));
        // Epochs that do not increase, and a full row naming a parent.
        assert!(!parses(&[(3, Full, 3), (3, Full, 3)]));
        assert!(!parses(&[(0, Full, 0), (1, Full, 0)]));
    }

    /// Counts the reads of each file through to a [`CrashFs`].
    struct CountingFs {
        inner: CrashFs,
        reads: Mutex<HashMap<String, usize>>,
    }

    impl StorageFs for CountingFs {
        fn create(&self, name: &str) -> Result<(), FsError> {
            self.inner.create(name)
        }
        fn append(&self, name: &str, data: &[u8]) -> Result<(), FsError> {
            self.inner.append(name, data)
        }
        fn fsync(&self, name: &str) -> Result<(), FsError> {
            self.inner.fsync(name)
        }
        fn read(&self, name: &str) -> Result<Vec<u8>, FsError> {
            *self.reads.lock().unwrap().entry(name.into()).or_default() += 1;
            self.inner.read(name)
        }
        fn rename(&self, from: &str, to: &str) -> Result<(), FsError> {
            self.inner.rename(from, to)
        }
        fn remove(&self, name: &str) -> Result<(), FsError> {
            self.inner.remove(name)
        }
        fn sync_dir(&self) -> Result<(), FsError> {
            self.inner.sync_dir()
        }
        fn list(&self) -> Result<Vec<String>, FsError> {
            self.inner.list()
        }
        fn exists(&self, name: &str) -> Result<bool, FsError> {
            self.inner.exists(name)
        }
    }

    #[test]
    fn load_best_reads_each_image_at_most_once() {
        use super::tests::{delta, full};
        let fs = CrashFs::new();
        let mut cs = ChainStore::open(Arc::new(fs.clone())).unwrap();
        cs.publish(&full(0, 1), 10, b"").unwrap();
        cs.publish(&delta(1, 0, 2), 20, b"").unwrap();
        cs.publish(&delta(2, 1, 3), 30, b"").unwrap();
        let newest = cs.publish(&full(3, 4), 40, b"").unwrap();
        cs.publish(&delta(4, 3, 5), 50, b"").unwrap();
        // Intact, then with the newest full image corrupt: the fold starts
        // from the generation before it, and stops at that image again.
        for damaged in [false, true] {
            if damaged {
                corrupt(&fs, &newest.file);
            }
            let counting = Arc::new(CountingFs {
                inner: fs.clone(),
                reads: Mutex::default(),
            });
            let cs = ChainStore::open(Arc::clone(&counting) as Arc<dyn StorageFs>).unwrap();
            let loaded = cs.load_best().unwrap().unwrap();
            assert_eq!(loaded.tip.epoch, if damaged { 2 } else { 4 });
            for (file, reads) in counting.reads.lock().unwrap().iter() {
                assert!(*reads <= 1, "{file} read {reads} times");
            }
        }
    }

    /// `(function, line)` for each line of this file before its tests:
    /// the function whose body the line is in, or the last one declared
    /// above it ("" before the first).
    fn lines_by_fn() -> Vec<(&'static str, &'static str)> {
        let src = include_str!("chain.rs");
        let code = &src[..src.find("#[cfg(test)]").expect("a test module")];
        let mut current = "";
        let mut lines = Vec::new();
        for line in code.lines() {
            if let Some((before, after)) = line.split_once("fn ") {
                if before
                    .trim()
                    .chars()
                    .all(|c| c.is_alphanumeric() || "() ".contains(c))
                {
                    current = after.split(['(', '<']).next().unwrap_or("");
                }
            }
            lines.push((current, line));
        }
        lines
    }

    #[test]
    fn only_prune_removes_files() {
        for (name, line) in lines_by_fn() {
            assert!(
                !line.contains(".remove(") || name == "prune",
                "{name} removes a file: only an explicit prune may\n{line}"
            );
        }
    }
}
