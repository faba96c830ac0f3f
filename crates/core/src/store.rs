//! The persistent, content-addressed artifact store (`YALI_STORE=dir`).
//!
//! The engine's in-memory caches ([`crate::engine::EmbedCache`],
//! [`crate::engine::TransformCache`], [`crate::engine::NormalizeCache`],
//! [`crate::engine::ModelCache`]) die with the process, so the
//! warm-store speedups evaporate between runs and cannot be shared by
//! the workers of a sharded sweep. This module
//! promotes them to a read-through hierarchy over an on-disk store:
//! memory hit → disk hit → compute-and-publish.
//!
//! # On-disk format
//!
//! A store directory holds `segments/*.seg` — append-only segment files,
//! one per writing process — plus a `tmp/` staging area. There is no
//! on-disk index: [`ArtifactStore::open`] rebuilds the key → (segment,
//! offset) map by scanning every segment, validating each record as it
//! goes.
//!
//! Each segment starts with a 16-byte header (`YALS`, format version,
//! FNV-64 checksum) and continues with framed records:
//!
//! ```text
//! "YALR" | ns (1) | key (8 LE) | len (4 LE) | header FNV-64 | payload | payload FNV-64
//! ```
//!
//! The header checksum covers the frame up to and including `len`, so a
//! reader can trust `len` (and skip to the next record) even when the
//! payload itself is damaged; the payload checksum catches the damage.
//! A record that fails either check is rejected with an offset-bearing
//! [`ScanError`] and the scanner resyncs on the next `YALR` magic, so one
//! corrupt record never takes down the intact records around it. A
//! truncated tail — the signature of a writer killed mid-append — drops
//! exactly the torn record.
//!
//! # Durability
//!
//! Segment files are *created* via temp-file + atomic rename: the header
//! is written and fsync'd under `tmp/`, the file is renamed into
//! `segments/`, and the directory is fsync'd — no reader ever sees a
//! half-created segment. Appends are flushed per record (a concurrent
//! reader sees a record as soon as [`ArtifactStore::put`] returns) and
//! fsync'd on [`ArtifactStore::sync`]; a crash between flush and fsync
//! can lose the tail records of the crashing process but — because
//! records are self-validating and append-only — never corrupts anyone
//! else's.
//!
//! Keys are 64-bit content digests (the same `Module::content_hash` /
//! `ModelCache` composite-key discipline the in-memory caches use), one
//! [`Namespace`] per cache. Payloads are prefixed with the
//! [`yali_ml::serialize::CODEC_VERSION`] byte; a payload written by an
//! incompatible binary is treated as a miss, never a panic.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use yali_embed::{Embedding, EmbeddingKind, ProgramGraph};
use yali_obs::{EnvVar, WarnOnce};
use yali_ir::Fnv64;
use yali_ml::serialize::{ByteReader, ByteWriter, CODEC_VERSION};

/// Which cache a record belongs to. The tag byte is part of the on-disk
/// frame, so the values are stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Namespace {
    /// [`crate::engine::EmbedCache`] payloads (encoded [`Embedding`]s).
    Embed,
    /// [`crate::engine::TransformCache`] and
    /// [`crate::engine::NormalizeCache`] payloads (printed IR modules).
    Transform,
    /// [`crate::engine::ModelCache`] payloads (serialized model blobs).
    Model,
}

impl Namespace {
    /// All namespaces, in tag order.
    pub const ALL: [Namespace; 3] = [Namespace::Embed, Namespace::Transform, Namespace::Model];

    fn tag(self) -> u8 {
        match self {
            Namespace::Embed => 1,
            Namespace::Transform => 2,
            Namespace::Model => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Namespace> {
        match tag {
            1 => Some(Namespace::Embed),
            2 => Some(Namespace::Transform),
            3 => Some(Namespace::Model),
            _ => None,
        }
    }

    /// Display name (`embed`, `transform`, `model`).
    pub fn name(self) -> &'static str {
        match self {
            Namespace::Embed => "embed",
            Namespace::Transform => "transform",
            Namespace::Model => "model",
        }
    }
}

const SEG_MAGIC: &[u8; 4] = b"YALS";
const REC_MAGIC: &[u8; 4] = b"YALR";
/// On-disk format version of the segment framing itself (independent of
/// the payload codec version).
pub const STORE_FORMAT_VERSION: u32 = 1;
const SEG_HEADER_LEN: usize = 16; // magic(4) + version(4) + fnv(8)
const REC_HEADER_LEN: usize = 25; // magic(4) + ns(1) + key(8) + len(4) + fnv(8)

fn fnv_of(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    for &b in bytes {
        h.write_u64(b as u64);
    }
    h.finish()
}

/// One damaged region found while scanning a segment: where it was and
/// why the record there was rejected. `Display` always names the byte
/// offset, so a corrupt store is diagnosable from the warning alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanError {
    /// Byte offset of the rejected frame within its segment file.
    pub offset: usize,
    /// What failed there.
    pub reason: String,
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "offset {}: {}", self.offset, self.reason)
    }
}

/// One record recovered by [`scan_records`]: its key and where its
/// payload lives in the scanned byte range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannedRecord {
    /// The record's namespace.
    pub ns: Namespace,
    /// The record's 64-bit content key.
    pub key: u64,
    /// Payload start offset within the scanned bytes.
    pub payload_start: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
}

/// Encodes one record frame (exposed so the codec proptests can build
/// and damage segments without touching the filesystem).
pub fn encode_record(ns: Namespace, key: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(REC_HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(REC_MAGIC);
    out.push(ns.tag());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let hcrc = fnv_of(&out);
    out.extend_from_slice(&hcrc.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv_of(payload).to_le_bytes());
    out
}

/// Encodes the 16-byte segment header.
pub fn encode_segment_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(SEG_HEADER_LEN);
    out.extend_from_slice(SEG_MAGIC);
    out.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    let crc = fnv_of(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn read_u64_le(bytes: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(b)
}

fn find_magic(data: &[u8], from: usize) -> Option<usize> {
    (from..data.len().saturating_sub(REC_MAGIC.len() - 1))
        .find(|&i| &data[i..i + REC_MAGIC.len()] == REC_MAGIC.as_slice())
}

/// Scans one segment's bytes (header included) into its intact records
/// plus the errors for every damaged region. A damaged record is skipped
/// — via its length field when the frame header validates, by resyncing
/// on the next record magic otherwise — so corruption is contained to the
/// bytes it actually hit; a truncated tail loses only the torn record.
pub fn scan_records(data: &[u8]) -> (Vec<ScannedRecord>, Vec<ScanError>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    if data.len() < SEG_HEADER_LEN
        || &data[..4] != SEG_MAGIC
        || read_u64_le(&data[8..16]) != fnv_of(&data[..8])
    {
        errors.push(ScanError {
            offset: 0,
            reason: "segment header missing or damaged".into(),
        });
        // Records may still be recoverable past the header: resync.
        if let Some(next) = find_magic(data, 0) {
            let (mut rs, mut es) = scan_from(data, next);
            records.append(&mut rs);
            errors.append(&mut es);
        }
        return (records, errors);
    }
    let version = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
    if version != STORE_FORMAT_VERSION {
        errors.push(ScanError {
            offset: 4,
            reason: format!(
                "segment format version {version} (this binary writes {STORE_FORMAT_VERSION})"
            ),
        });
        return (records, errors);
    }
    let (rs, es) = scan_from(data, SEG_HEADER_LEN);
    (rs, es)
}

fn scan_from(data: &[u8], start: usize) -> (Vec<ScannedRecord>, Vec<ScanError>) {
    let mut records = Vec::new();
    let mut errors = Vec::new();
    let mut pos = start;
    while pos < data.len() {
        if data.len() - pos < REC_HEADER_LEN {
            errors.push(ScanError {
                offset: pos,
                reason: format!(
                    "truncated frame header ({} bytes left, {} needed)",
                    data.len() - pos,
                    REC_HEADER_LEN
                ),
            });
            break;
        }
        let frame = &data[pos..];
        let header_ok = &frame[..4] == REC_MAGIC
            && read_u64_le(&frame[17..25]) == fnv_of(&frame[..17]);
        if !header_ok {
            errors.push(ScanError {
                offset: pos,
                reason: "record header damaged (bad magic or checksum)".into(),
            });
            match find_magic(data, pos + 1) {
                Some(next) => {
                    pos = next;
                    continue;
                }
                None => break,
            }
        }
        let ns_tag = frame[4];
        let key = read_u64_le(&frame[5..13]);
        let len = u32::from_le_bytes([frame[13], frame[14], frame[15], frame[16]]) as usize;
        let payload_start = pos + REC_HEADER_LEN;
        let end = payload_start + len + 8;
        if end > data.len() {
            errors.push(ScanError {
                offset: pos,
                reason: format!(
                    "truncated record (payload of {len} bytes runs past the segment end)"
                ),
            });
            break;
        }
        let payload = &data[payload_start..payload_start + len];
        let stored_crc = read_u64_le(&data[payload_start + len..end]);
        if stored_crc != fnv_of(payload) {
            errors.push(ScanError {
                offset: pos,
                reason: format!("payload checksum mismatch for key {key:#018x}"),
            });
            pos = end; // len was validated by the header checksum
            continue;
        }
        match Namespace::from_tag(ns_tag) {
            Some(ns) => records.push(ScannedRecord {
                ns,
                key,
                payload_start,
                payload_len: len,
            }),
            None => errors.push(ScanError {
                offset: pos,
                reason: format!("unknown namespace tag {ns_tag}"),
            }),
        }
        pos = end;
    }
    (records, errors)
}

/// Where one committed record lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    file: u32,
    offset: u64,
    len: u32,
}

/// Counters for [`StoreStats`], kept independent of `yali-obs` so the
/// report is available even with observability off.
#[derive(Default)]
struct StoreCounters {
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    published: AtomicU64,
    capped: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// Snapshot of a store's activity since it was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from disk.
    pub disk_hits: u64,
    /// Lookups not on disk (the caller computes and publishes).
    pub disk_misses: u64,
    /// Records this process appended.
    pub published: u64,
    /// Publishes dropped by the `YALI_STORE_MAX_BYTES` cap.
    pub capped: u64,
    /// Payload bytes read from disk.
    pub bytes_read: u64,
    /// Frame bytes appended to disk.
    pub bytes_written: u64,
    /// Committed records indexed (all namespaces).
    pub entries: usize,
    /// Total bytes on disk across every segment.
    pub total_bytes: u64,
}

struct SegmentWriter {
    file: File,
    file_idx: u32,
    bytes_since_sync: u64,
}

/// The on-disk artifact store: an index over append-only segment files.
///
/// One `ArtifactStore` may be shared by every thread of a process, and
/// one store *directory* by any number of processes — each process
/// appends to its own segment, so writers never contend across process
/// boundaries and a reader sees a record as soon as its writer's `put`
/// returned.
pub struct ArtifactStore {
    dir: PathBuf,
    /// Segment paths; `Loc::file` indexes here.
    files: Mutex<Vec<PathBuf>>,
    index: Mutex<HashMap<(u8, u64), Loc>>,
    writer: Mutex<Option<SegmentWriter>>,
    counters: StoreCounters,
    total_bytes: AtomicU64,
    max_bytes: Option<u64>,
    scan_errors: Vec<(PathBuf, ScanError)>,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store at `dir`, scanning every
    /// committed segment into the in-memory index. Damaged records are
    /// skipped — collected in [`ArtifactStore::scan_errors`] and warned
    /// about — while every intact record stays readable.
    pub fn open(dir: &Path) -> std::io::Result<ArtifactStore> {
        let _span = yali_obs::span!("store.open");
        fs::create_dir_all(dir.join("segments"))?;
        fs::create_dir_all(dir.join("tmp"))?;
        let mut seg_paths: Vec<PathBuf> = fs::read_dir(dir.join("segments"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        // Deterministic index regardless of directory enumeration order.
        seg_paths.sort();
        let mut index = HashMap::new();
        let mut files = Vec::new();
        let mut scan_errors = Vec::new();
        let mut total_bytes = 0u64;
        for path in seg_paths {
            let data = fs::read(&path)?;
            total_bytes += data.len() as u64;
            let (records, errors) = scan_records(&data);
            let file_idx = files.len() as u32;
            for r in records {
                // First writer wins, matching the in-memory caches: the
                // store is content-addressed, so duplicates are replays
                // of the same computation anyway.
                index.entry((r.ns.tag(), r.key)).or_insert(Loc {
                    file: file_idx,
                    offset: r.payload_start as u64,
                    len: r.payload_len as u32,
                });
            }
            for e in errors {
                yali_obs::warn(&format!(
                    "artifact store segment {}: {e} (record skipped)",
                    path.display()
                ));
                scan_errors.push((path.clone(), e));
            }
            files.push(path);
        }
        Ok(ArtifactStore {
            dir: dir.to_path_buf(),
            files: Mutex::new(files),
            index: Mutex::new(index),
            writer: Mutex::new(None),
            counters: StoreCounters::default(),
            total_bytes: AtomicU64::new(total_bytes),
            max_bytes: max_bytes_cap(),
            scan_errors,
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Damaged regions found while opening, per segment file.
    pub fn scan_errors(&self) -> &[(PathBuf, ScanError)] {
        &self.scan_errors
    }

    /// Looks a payload up on disk. `None` counts a disk miss; the caller
    /// is expected to compute the artifact and [`ArtifactStore::put`] it.
    pub fn get(&self, ns: Namespace, key: u64) -> Option<Vec<u8>> {
        let _span = yali_obs::span!("store.read");
        let loc = match self.index.lock().unwrap().get(&(ns.tag(), key)) {
            Some(&loc) => loc,
            None => {
                self.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
                yali_obs::count!("store.disk.misses", 1);
                return None;
            }
        };
        let path = self.files.lock().unwrap()[loc.file as usize].clone();
        match read_payload(&path, loc) {
            Ok(payload) => {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_read
                    .fetch_add(payload.len() as u64, Ordering::Relaxed);
                yali_obs::count!("store.disk.hits", 1);
                yali_obs::count!("store.read_bytes", payload.len() as u64);
                Some(payload)
            }
            Err(e) => {
                // A record that validated at scan time but fails now means
                // the file changed underneath us; degrade to a miss.
                yali_obs::warn(&format!(
                    "artifact store read of {} failed: {e}; treating as a miss",
                    path.display()
                ));
                self.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
                yali_obs::count!("store.disk.misses", 1);
                None
            }
        }
    }

    /// Publishes a payload (first writer wins; replays of a key already
    /// on disk are dropped). Returns whether the record was appended.
    pub fn put(&self, ns: Namespace, key: u64, payload: &[u8]) -> bool {
        let _span = yali_obs::span!("store.write");
        {
            let index = self.index.lock().unwrap();
            if index.contains_key(&(ns.tag(), key)) {
                return false;
            }
        }
        let frame = encode_record(ns, key, payload);
        if let Some(cap) = self.max_bytes {
            let projected = self.total_bytes.load(Ordering::Relaxed) + frame.len() as u64;
            if projected > cap {
                self.counters.capped.fetch_add(1, Ordering::Relaxed);
                yali_obs::count!("store.publish.capped", 1);
                static ONCE: WarnOnce = WarnOnce::new();
                ONCE.warn(&format!(
                    "artifact store at {} reached YALI_STORE_MAX_BYTES ({cap}); \
                     further publishes are dropped (reads keep working)",
                    self.dir.display()
                ));
                return false;
            }
        }
        let mut writer = self.writer.lock().unwrap();
        if writer.is_none() {
            match self.open_segment() {
                Ok(w) => *writer = Some(w),
                Err(e) => {
                    static ONCE: WarnOnce = WarnOnce::new();
                    ONCE.warn(&format!(
                        "artifact store at {} cannot open a segment for writing: {e}; \
                         this process will not publish",
                        self.dir.display()
                    ));
                    return false;
                }
            }
        }
        let w = writer.as_mut().expect("writer just ensured");
        let offset = match w.file.stream_position().and_then(|pos| {
            w.file.write_all(&frame)?;
            w.file.flush()?;
            Ok(pos)
        }) {
            Ok(pos) => pos,
            Err(e) => {
                yali_obs::warn(&format!("artifact store append failed: {e}"));
                return false;
            }
        };
        w.bytes_since_sync += frame.len() as u64;
        // Bound the window a crash can lose without paying an fsync per
        // record: sync every 4 MiB, plus on `sync()`/drop.
        if w.bytes_since_sync >= 4 << 20 {
            let _ = w.file.sync_data();
            w.bytes_since_sync = 0;
        }
        let loc = Loc {
            file: w.file_idx,
            offset: offset + REC_HEADER_LEN as u64,
            len: payload.len() as u32,
        };
        self.index.lock().unwrap().insert((ns.tag(), key), loc);
        self.total_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.counters.published.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes_written
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        yali_obs::count!("store.published", 1);
        yali_obs::count!("store.written_bytes", frame.len() as u64);
        true
    }

    /// Creates this process's segment: header staged under `tmp/`,
    /// fsync'd, atomically renamed into `segments/`, directory fsync'd.
    /// Readers therefore never observe a segment without a valid header.
    fn open_segment(&self) -> std::io::Result<SegmentWriter> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "seg-{:08}-{:016x}-{}",
            std::process::id(),
            yali_obs::epoch_ns(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let tmp_path = self.dir.join("tmp").join(format!("{name}.tmp"));
        let final_path = self.dir.join("segments").join(format!("{name}.seg"));
        let mut file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .read(true)
            .open(&tmp_path)?;
        file.write_all(&encode_segment_header())?;
        file.sync_data()?;
        fs::rename(&tmp_path, &final_path)?;
        // fsync the directory so the rename itself is durable.
        if let Ok(d) = File::open(self.dir.join("segments")) {
            let _ = d.sync_all();
        }
        self.total_bytes
            .fetch_add(SEG_HEADER_LEN as u64, Ordering::Relaxed);
        let mut files = self.files.lock().unwrap();
        files.push(final_path);
        Ok(SegmentWriter {
            file,
            file_idx: (files.len() - 1) as u32,
            bytes_since_sync: 0,
        })
    }

    /// Fsyncs this process's segment. Workers call this before exiting so
    /// their records survive power loss, not just process death.
    pub fn sync(&self) {
        if let Some(w) = self.writer.lock().unwrap().as_mut() {
            let _ = w.file.sync_data();
            w.bytes_since_sync = 0;
        }
    }

    /// Activity snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.counters.disk_misses.load(Ordering::Relaxed),
            published: self.counters.published.load(Ordering::Relaxed),
            capped: self.counters.capped.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            entries: self.index.lock().unwrap().len(),
            total_bytes: self.total_bytes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ArtifactStore {
    fn drop(&mut self) {
        self.sync();
    }
}

fn read_payload(path: &Path, loc: Loc) -> std::io::Result<Vec<u8>> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(loc.offset))?;
    let mut payload = vec![0u8; loc.len as usize + 8];
    f.read_exact(&mut payload)?;
    let stored_crc = read_u64_le(&payload[loc.len as usize..]);
    payload.truncate(loc.len as usize);
    if stored_crc != fnv_of(&payload) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("payload checksum mismatch at offset {}", loc.offset),
        ));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Environment plumbing: YALI_STORE / YALI_STORE_MAX_BYTES.
// ---------------------------------------------------------------------------

/// Parses a `YALI_STORE` value into the directory to open the store at.
/// `0`/`off`/`false` disable the store explicitly (mirroring
/// `YALI_CACHE`); an empty or blank value is [`EnvVar::Invalid`] — the
/// caller warns once and stays in-memory.
pub fn parse_store(v: Option<&str>) -> EnvVar<PathBuf> {
    match v {
        None => EnvVar::Unset,
        Some(raw) => {
            let trimmed = raw.trim();
            match trimmed {
                "" => EnvVar::Invalid,
                "0" | "off" | "false" => EnvVar::Unset,
                dir => EnvVar::Value(PathBuf::from(dir)),
            }
        }
    }
}

/// Parses a `YALI_STORE_MAX_BYTES` value: a positive integer byte count,
/// with optional `k`/`m`/`g` (binary) suffix. Zero, blanks, and
/// non-numbers are [`EnvVar::Invalid`] — the caller warns once and runs
/// uncapped rather than panicking.
pub fn parse_max_bytes(v: Option<&str>) -> EnvVar<u64> {
    let Some(raw) = v else {
        return EnvVar::Unset;
    };
    let t = raw.trim();
    let (digits, mult) = match t.char_indices().last() {
        Some((i, 'k')) | Some((i, 'K')) => (&t[..i], 1u64 << 10),
        Some((i, 'm')) | Some((i, 'M')) => (&t[..i], 1u64 << 20),
        Some((i, 'g')) | Some((i, 'G')) => (&t[..i], 1u64 << 30),
        _ => (t, 1),
    };
    match digits.trim().parse::<u64>() {
        Ok(n) if n >= 1 => match n.checked_mul(mult) {
            Some(b) => EnvVar::Value(b),
            None => EnvVar::Invalid,
        },
        _ => EnvVar::Invalid,
    }
}

fn max_bytes_cap() -> Option<u64> {
    static ONCE: WarnOnce = WarnOnce::new();
    yali_obs::env_once(
        "YALI_STORE_MAX_BYTES",
        &ONCE,
        "is not a positive byte count; running with no store size cap",
        parse_max_bytes,
    )
}

/// The process-wide store slot: `None` until first use, then either the
/// opened store or a recorded decision to stay in-memory.
static STORE_SLOT: Mutex<Option<Arc<ArtifactStore>>> = Mutex::new(None);
static ENV_CONSULTED: OnceLock<()> = OnceLock::new();

/// The active artifact store, if any. The first call consults
/// `YALI_STORE`: a usable directory attaches the store for the whole
/// process; a garbage value or an unopenable directory warns once and
/// leaves the engine in-memory-only — experiments never fail because the
/// store could not come up.
pub fn active() -> Option<Arc<ArtifactStore>> {
    ENV_CONSULTED.get_or_init(|| {
        static ONCE: WarnOnce = WarnOnce::new();
        let dir = yali_obs::env_once(
            "YALI_STORE",
            &ONCE,
            "is not a usable directory path; running with in-memory caches only",
            parse_store,
        );
        if let Some(dir) = dir {
            match ArtifactStore::open(&dir) {
                Ok(store) => {
                    *STORE_SLOT.lock().unwrap() = Some(Arc::new(store));
                }
                Err(e) => {
                    yali_obs::warn(&format!(
                        "YALI_STORE={} cannot be opened ({e}); \
                         running with in-memory caches only",
                        dir.display()
                    ));
                }
            }
        }
    });
    STORE_SLOT.lock().unwrap().clone()
}

/// Programmatic override of the store directory (benches and tests; the
/// analogue of `yali_obs::set_enabled`). `None` detaches the store.
/// Returns any open error — the slot is left in-memory-only on failure.
pub fn set_store_dir(dir: Option<&Path>) -> std::io::Result<()> {
    let _ = ENV_CONSULTED.set(()); // the override wins over the env var
    let mut slot = STORE_SLOT.lock().unwrap();
    *slot = None;
    if let Some(dir) = dir {
        *slot = Some(Arc::new(ArtifactStore::open(dir)?));
    }
    Ok(())
}

/// Stats of the active store, if one is attached.
pub fn active_stats() -> Option<StoreStats> {
    active().map(|s| s.stats())
}

/// Fsyncs the active store's segment (worker exit hook).
pub fn sync_active() {
    if let Some(s) = active() {
        s.sync();
    }
}

// ---------------------------------------------------------------------------
// Payload codecs: cache values ⇄ store bytes.
// ---------------------------------------------------------------------------
//
// Every payload leads with the `yali_ml::serialize` codec version byte;
// a mismatch (a store written by an incompatible binary) degrades to a
// miss rather than a panic, because disk blobs — unlike the in-process
// cache's — legitimately outlive the binary that wrote them.

fn edge_tag(k: yali_embed::EdgeKind) -> u8 {
    match k {
        yali_embed::EdgeKind::Control => 0,
        yali_embed::EdgeKind::Data => 1,
        yali_embed::EdgeKind::Call => 2,
        yali_embed::EdgeKind::Memory => 3,
    }
}

fn edge_from_tag(tag: u8) -> Option<yali_embed::EdgeKind> {
    match tag {
        0 => Some(yali_embed::EdgeKind::Control),
        1 => Some(yali_embed::EdgeKind::Data),
        2 => Some(yali_embed::EdgeKind::Call),
        3 => Some(yali_embed::EdgeKind::Memory),
        _ => None,
    }
}

/// Serializes an embedding for the store (`f64` bit patterns throughout,
/// so a disk round trip reproduces the computation byte-for-byte).
pub fn encode_embedding(e: &Embedding) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(CODEC_VERSION);
    match e {
        Embedding::Vector(v) => {
            w.put_u8(1);
            w.put_f64s(v);
        }
        Embedding::Graph(g) => {
            w.put_u8(2);
            w.put_usize(g.feats.len());
            for row in &g.feats {
                w.put_f64s(row);
            }
            w.put_usize(g.edges.len());
            for &(s, d, k) in &g.edges {
                w.put_usize(s);
                w.put_usize(d);
                w.put_u8(edge_tag(k));
            }
        }
    }
    w.into_bytes()
}

/// Deserializes [`encode_embedding`] bytes; `None` on a version or shape
/// mismatch (treated as a store miss).
pub fn decode_embedding(bytes: &[u8]) -> Option<Embedding> {
    if bytes.len() < 2 || bytes[0] != CODEC_VERSION {
        return None;
    }
    let mut r = ByteReader::new(&bytes[1..]);
    match r.get_u8() {
        1 => Some(Embedding::Vector(r.get_f64s())),
        2 => {
            let n = r.get_usize();
            let feats = (0..n).map(|_| r.get_f64s()).collect();
            let ne = r.get_usize();
            let mut edges = Vec::with_capacity(ne);
            for _ in 0..ne {
                let s = r.get_usize();
                let d = r.get_usize();
                let k = edge_from_tag(r.get_u8())?;
                edges.push((s, d, k));
            }
            Some(Embedding::Graph(ProgramGraph { feats, edges }))
        }
        _ => None,
    }
}

/// Serializes a transformed module for the store as printed IR text
/// (the printer/parser pair is a fixpoint, and `content_hash` — the only
/// thing embeddings can observe — survives the round trip).
pub fn encode_module(m: &yali_ir::Module) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u8(CODEC_VERSION);
    w.put_bytes(yali_ir::print_module(m).as_bytes());
    w.into_bytes()
}

/// Deserializes [`encode_module`] bytes; `None` on version mismatch or a
/// parse error (treated as a store miss).
pub fn decode_module(bytes: &[u8]) -> Option<yali_ir::Module> {
    if bytes.len() < 2 || bytes[0] != CODEC_VERSION {
        return None;
    }
    let mut r = ByteReader::new(&bytes[1..]);
    let text = String::from_utf8(r.get_bytes()).ok()?;
    yali_ir::parse_module(&text).ok()
}

/// Serializes a model blob for the store. Model blobs already carry the
/// codec version internally, but the prefix makes every store payload
/// uniformly versioned (and lets the reader reject foreign blobs without
/// tripping the deserializer's panics).
pub fn encode_model(blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(blob.len() + 1);
    out.push(CODEC_VERSION);
    out.extend_from_slice(blob);
    out
}

/// Deserializes [`encode_model`] bytes; `None` on version mismatch.
pub fn decode_model(bytes: &[u8]) -> Option<Vec<u8>> {
    match bytes.split_first() {
        Some((&v, rest)) if v == CODEC_VERSION => Some(rest.to_vec()),
        _ => None,
    }
}

/// Store key for an embedding record: the module's structural hash mixed
/// with the embedding kind.
pub fn embed_key(content_hash: u64, kind: EmbeddingKind) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("store-embed-v1");
    h.write_u64(content_hash);
    h.write_str(kind.name());
    h.finish()
}

/// Store key for a transform record: source hash × transformer × seed
/// (the complete input of `Transformer::apply`).
pub fn transform_key(source_hash: u64, transformer_name: &str, seed: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("store-transform-v1");
    h.write_u64(source_hash);
    h.write_str(transformer_name);
    h.write_u64(seed);
    h.finish()
}

/// Store key for a normalizer record, kept in the `transform` namespace:
/// the input module's structural hash × optimization level (the complete
/// input of `yali_opt::optimize`).
pub fn normalize_key(content_hash: u64, level: yali_opt::OptLevel) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("store-normalize-v1");
    h.write_u64(content_hash);
    h.write_str(level.flag());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "yali_store_test_{tag}_{}_{}",
            std::process::id(),
            yali_obs::epoch_ns()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_round_trips_records_within_and_across_opens() {
        let dir = tmpdir("roundtrip");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            assert!(store.put(Namespace::Embed, 7, b"alpha"));
            assert!(store.put(Namespace::Model, 7, b"beta")); // same key, other ns
            assert!(!store.put(Namespace::Embed, 7, b"alpha"), "dedup");
            assert_eq!(store.get(Namespace::Embed, 7).unwrap(), b"alpha");
            assert_eq!(store.get(Namespace::Model, 7).unwrap(), b"beta");
            assert!(store.get(Namespace::Transform, 7).is_none());
            let s = store.stats();
            assert_eq!((s.published, s.disk_hits, s.disk_misses), (2, 2, 1));
            assert_eq!(s.entries, 2);
        }
        // Fresh open (a "new process"): records committed by the old one.
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.scan_errors().is_empty());
        assert_eq!(store.get(Namespace::Embed, 7).unwrap(), b"alpha");
        assert_eq!(store.get(Namespace::Model, 7).unwrap(), b"beta");
        assert_eq!(store.stats().entries, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_loses_only_the_torn_record() {
        let dir = tmpdir("torn");
        {
            let store = ArtifactStore::open(&dir).unwrap();
            for k in 0..5u64 {
                store.put(Namespace::Model, k, format!("payload-{k}").as_bytes());
            }
        }
        // Simulate a writer killed mid-append: chop bytes off the tail.
        let seg = fs::read_dir(dir.join("segments"))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let data = fs::read(&seg).unwrap();
        fs::write(&seg, &data[..data.len() - 7]).unwrap();
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.scan_errors().len(), 1);
        let msg = store.scan_errors()[0].1.to_string();
        assert!(msg.contains("offset"), "error must carry the offset: {msg}");
        for k in 0..4u64 {
            assert_eq!(
                store.get(Namespace::Model, k).unwrap(),
                format!("payload-{k}").as_bytes(),
                "intact record {k} must survive the torn tail"
            );
        }
        assert!(store.get(Namespace::Model, 4).is_none(), "torn record dropped");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_bytes_cap_drops_publishes_but_keeps_reads() {
        let dir = tmpdir("cap");
        let store = ArtifactStore::open(&dir).unwrap();
        // Rebuild with a tiny cap via the parsed-cap field directly.
        let mut store = store;
        store.max_bytes = Some(120);
        assert!(store.put(Namespace::Model, 1, b"x"));
        assert!(!store.put(Namespace::Model, 2, &[0u8; 256]), "over cap");
        assert_eq!(store.stats().capped, 1);
        assert_eq!(store.get(Namespace::Model, 1).unwrap(), b"x");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_store_discipline() {
        assert_eq!(parse_store(None), EnvVar::<PathBuf>::Unset);
        assert_eq!(parse_store(Some("0")), EnvVar::<PathBuf>::Unset);
        assert_eq!(parse_store(Some("off")), EnvVar::<PathBuf>::Unset);
        assert_eq!(parse_store(Some("")), EnvVar::Invalid);
        assert_eq!(parse_store(Some("   ")), EnvVar::Invalid);
        assert_eq!(
            parse_store(Some(" /tmp/yali-store ")),
            EnvVar::Value(PathBuf::from("/tmp/yali-store"))
        );
    }

    #[test]
    fn parse_max_bytes_discipline() {
        assert_eq!(parse_max_bytes(None), EnvVar::<u64>::Unset);
        assert_eq!(parse_max_bytes(Some("1024")), EnvVar::Value(1024));
        assert_eq!(parse_max_bytes(Some(" 8k ")), EnvVar::Value(8192));
        assert_eq!(parse_max_bytes(Some("2M")), EnvVar::Value(2 << 20));
        assert_eq!(parse_max_bytes(Some("1g")), EnvVar::Value(1 << 30));
        assert_eq!(parse_max_bytes(Some("0")), EnvVar::Invalid);
        assert_eq!(parse_max_bytes(Some("")), EnvVar::Invalid);
        assert_eq!(parse_max_bytes(Some("abc")), EnvVar::Invalid);
        assert_eq!(parse_max_bytes(Some("-5")), EnvVar::Invalid);
        assert_eq!(parse_max_bytes(Some("12q")), EnvVar::Invalid);
    }

    #[test]
    fn embedding_codec_round_trips_both_shapes() {
        let v = Embedding::Vector(vec![1.5, -0.0, f64::MIN_POSITIVE]);
        let decoded = decode_embedding(&encode_embedding(&v)).unwrap();
        assert_eq!(decoded, v);
        let g = Embedding::Graph(ProgramGraph {
            feats: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
            edges: vec![
                (0, 1, yali_embed::EdgeKind::Control),
                (1, 0, yali_embed::EdgeKind::Memory),
            ],
        });
        assert_eq!(decode_embedding(&encode_embedding(&g)).unwrap(), g);
        // Foreign version byte: a miss, not a panic.
        let mut bad = encode_embedding(&v);
        bad[0] = bad[0].wrapping_add(1);
        assert!(decode_embedding(&bad).is_none());
    }

    #[test]
    fn module_codec_preserves_the_content_hash() {
        let m = yali_minic::compile("int f(int a) { return a * a + 3; }").unwrap();
        let decoded = decode_module(&encode_module(&m)).unwrap();
        assert_eq!(decoded.content_hash(), m.content_hash());
        assert_eq!(yali_ir::print_module(&decoded), yali_ir::print_module(&m));
    }

    #[test]
    fn model_codec_round_trips_and_rejects_foreign_versions() {
        let blob = vec![9u8, 8, 7];
        assert_eq!(decode_model(&encode_model(&blob)).unwrap(), blob);
        let mut bad = encode_model(&blob);
        bad[0] = bad[0].wrapping_add(1);
        assert!(decode_model(&bad).is_none());
        assert!(decode_model(&[]).is_none());
    }

    #[test]
    fn store_keys_separate_kinds_and_seeds() {
        assert_ne!(
            embed_key(1, EmbeddingKind::Histogram),
            embed_key(1, EmbeddingKind::Milepost)
        );
        assert_ne!(embed_key(1, EmbeddingKind::Cfg), embed_key(2, EmbeddingKind::Cfg));
        assert_ne!(transform_key(1, "fla", 0), transform_key(1, "fla", 1));
        assert_ne!(transform_key(1, "fla", 0), transform_key(1, "bcf", 0));
    }
}
