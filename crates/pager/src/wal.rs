//! Write-ahead log for live ingest.
//!
//! The write path is **append-before-mutate**: every accepted mutation is
//! appended to the log (and synced per [`FsyncPolicy`]) *before* it is
//! applied to the tree and acknowledged to the caller. A killed process
//! therefore recovers exactly the acknowledged prefix: reopen the last
//! committed page store, then replay the log past its watermark.
//!
//! ## Record framing
//!
//! Every record is CRC-framed:
//!
//! ```text
//! [len: u32 LE] [crc32(body): u32 LE] [body: len bytes]
//! body = [lsn: u64] [op: u8] [tid: u64] [payload_len: u32] [payload]
//! ```
//!
//! Replay accepts the longest valid prefix. A torn or corrupt tail — the
//! normal aftermath of `kill -9` mid-append — is detected by the length
//! and CRC checks, reported in [`Replay::truncated_bytes`], and physically
//! truncated away so the next append starts from a clean record boundary.
//!
//! ## Checkpoints
//!
//! A checkpoint commits the page store with the log's next LSN as its
//! **watermark**, then [`Wal::truncate`]s the log; LSNs keep counting
//! from the watermark. Replay skips records below the watermark, which
//! makes the crash window *after* the commit but *before* the truncation
//! harmless: those records replay as no-ops.

use crate::error::{SgError, SgResult};
use sg_obs::span::Span;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const HEADER_BYTES: usize = 8; // len + crc
const BODY_FIXED: usize = 8 + 1 + 8 + 4; // lsn + op + tid + payload_len

/// When the log forces appended bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append (and every batch): an acknowledged write
    /// survives power loss. The default for durable shards.
    Always,
    /// Leave flushing to the OS page cache: acknowledged writes survive a
    /// process kill (the test harness's `SIGKILL`) but not power loss.
    /// Roughly an order of magnitude higher append throughput.
    OsOnly,
}

/// A logged mutation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    /// Add `(tid, payload)` to the index.
    Insert,
    /// Remove `(tid, payload)` from the index.
    Delete,
    /// Replace tid's entry with `payload` (insert if absent).
    Upsert,
}

impl WalOp {
    fn to_byte(self) -> u8 {
        match self {
            WalOp::Insert => 1,
            WalOp::Delete => 2,
            WalOp::Upsert => 3,
        }
    }

    fn from_byte(b: u8) -> Option<WalOp> {
        match b {
            1 => Some(WalOp::Insert),
            2 => Some(WalOp::Delete),
            3 => Some(WalOp::Upsert),
            _ => None,
        }
    }
}

/// One recovered (or to-be-appended) log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number: strictly increasing across the shard's life,
    /// *including* across checkpoints.
    pub lsn: u64,
    /// The mutation kind.
    pub op: WalOp,
    /// The transaction id the mutation targets.
    pub tid: u64,
    /// Opaque payload (the encoded signature; the pager does not
    /// interpret it).
    pub payload: Vec<u8>,
}

/// Outcome of opening a log: the valid records plus tail diagnostics.
#[derive(Debug)]
pub struct Replay {
    /// Every valid record, in append order.
    pub records: Vec<WalRecord>,
    /// Bytes discarded from a torn or corrupt tail (0 on a clean log).
    pub truncated_bytes: u64,
}

/// An append-only, CRC-framed operation log.
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    next_lsn: u64,
    bytes: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .field("next_lsn", &self.next_lsn)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replays the valid
    /// prefix, truncates any torn tail, and positions the next append
    /// after the last valid record.
    ///
    /// `base_lsn` floors the LSN counter: the next appended record carries
    /// at least this LSN. Pass `0` for a fresh shard, or `watermark + 1`
    /// when opening after a checkpoint, so LSNs keep increasing even when
    /// the log file itself is empty.
    pub fn open(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        base_lsn: u64,
    ) -> SgResult<(Wal, Replay)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| SgError::io(format!("open wal {}", path.display()), e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| SgError::io("read wal", e))?;
        let (records, valid_len) = decode_records(&buf);
        let truncated = buf.len() as u64 - valid_len;
        if truncated > 0 {
            file.set_len(valid_len)
                .map_err(|e| SgError::io("truncate torn wal tail", e))?;
            file.sync_all().map_err(|e| SgError::io("sync wal", e))?;
        }
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| SgError::io("seek wal", e))?;
        let next_lsn = records.last().map(|r| r.lsn + 1).unwrap_or(0).max(base_lsn);
        Ok((
            Wal {
                file,
                path,
                policy,
                next_lsn,
                bytes: valid_len,
            },
            Replay {
                records,
                truncated_bytes: truncated,
            },
        ))
    }

    /// The LSN the next appended record will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Bytes of valid records currently in the log.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The configured durability policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Appends one record and syncs per policy. Returns its LSN.
    pub fn append(&mut self, op: WalOp, tid: u64, payload: &[u8]) -> SgResult<u64> {
        let mut span = Span::start("pager.wal_append", "pager");
        span.attr("records", 1);
        span.attr("bytes", (HEADER_BYTES + BODY_FIXED + payload.len()) as u64);
        let lsn = self.append_unsynced(op, tid, payload)?;
        self.sync()?;
        Ok(lsn)
    }

    /// Appends a batch of records with **one** write and **one** sync
    /// (group commit): the whole batch becomes durable together, so a
    /// batched ack amortizes the fsync across every write in the batch.
    /// Returns the LSN of each record, in order.
    pub fn append_batch(&mut self, items: &[(WalOp, u64, Vec<u8>)]) -> SgResult<Vec<u64>> {
        let mut span = Span::start("pager.wal_append", "pager");
        let mut frame = Vec::new();
        let mut lsns = Vec::with_capacity(items.len());
        for (op, tid, payload) in items {
            lsns.push(self.next_lsn);
            encode_record(&mut frame, self.next_lsn, *op, *tid, payload);
            self.next_lsn += 1;
        }
        span.attr("records", items.len() as u64);
        span.attr("bytes", frame.len() as u64);
        self.file
            .write_all(&frame)
            .map_err(|e| SgError::io("append wal batch", e))?;
        self.bytes += frame.len() as u64;
        self.sync()?;
        Ok(lsns)
    }

    fn append_unsynced(&mut self, op: WalOp, tid: u64, payload: &[u8]) -> SgResult<u64> {
        let lsn = self.next_lsn;
        let mut frame = Vec::with_capacity(HEADER_BYTES + BODY_FIXED + payload.len());
        encode_record(&mut frame, lsn, op, tid, payload);
        self.file
            .write_all(&frame)
            .map_err(|e| SgError::io("append wal record", e))?;
        self.next_lsn += 1;
        self.bytes += frame.len() as u64;
        Ok(lsn)
    }

    /// Forces appended records to stable storage per policy.
    pub fn sync(&mut self) -> SgResult<()> {
        match self.policy {
            FsyncPolicy::Always => {
                let _span = Span::start("pager.fsync", "pager");
                self.file
                    .sync_data()
                    .map_err(|e| SgError::io("fsync wal", e))
            }
            FsyncPolicy::OsOnly => Ok(()),
        }
    }

    /// Empties the log after a checkpoint made its records redundant. The
    /// LSN counter is *not* reset — it keeps increasing across the
    /// shard's whole life.
    pub fn truncate(&mut self) -> SgResult<()> {
        self.file
            .set_len(0)
            .map_err(|e| SgError::io("truncate wal", e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| SgError::io("seek wal", e))?;
        self.file
            .sync_all()
            .map_err(|e| SgError::io("sync truncated wal", e))?;
        self.bytes = 0;
        Ok(())
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ------------------------------------------------------------- framing

fn encode_record(out: &mut Vec<u8>, lsn: u64, op: WalOp, tid: u64, payload: &[u8]) {
    let body_len = BODY_FIXED + payload.len();
    let mut body = Vec::with_capacity(body_len);
    body.extend_from_slice(&lsn.to_le_bytes());
    body.push(op.to_byte());
    body.extend_from_slice(&tid.to_le_bytes());
    body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    body.extend_from_slice(payload);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
}

/// Decodes the longest valid record prefix of `buf`; returns the records
/// and how many bytes they span.
fn decode_records(buf: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while buf.len() - pos >= HEADER_BYTES {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len < BODY_FIXED || buf.len() - pos - HEADER_BYTES < len {
            break; // torn length field or torn body
        }
        let body = &buf[pos + HEADER_BYTES..pos + HEADER_BYTES + len];
        if crc32(body) != crc {
            break; // corrupt body
        }
        let lsn = u64::from_le_bytes(body[0..8].try_into().unwrap());
        let op = match WalOp::from_byte(body[8]) {
            Some(op) => op,
            None => break,
        };
        let tid = u64::from_le_bytes(body[9..17].try_into().unwrap());
        let payload_len = u32::from_le_bytes(body[17..21].try_into().unwrap()) as usize;
        if payload_len != len - BODY_FIXED {
            break;
        }
        records.push(WalRecord {
            lsn,
            op,
            tid,
            payload: body[21..].to_vec(),
        });
        pos += HEADER_BYTES + len;
    }
    (records, pos as u64)
}

/// CRC-32 (IEEE 802.3, reflected), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB88320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sg-wal-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip.wal");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, replay) = Wal::open(&path, FsyncPolicy::OsOnly, 0).unwrap();
            assert!(replay.records.is_empty());
            wal.append(WalOp::Insert, 7, b"abc").unwrap();
            wal.append(WalOp::Delete, 7, b"abc").unwrap();
            wal.append(WalOp::Upsert, 9, b"").unwrap();
        }
        let (wal, replay) = Wal::open(&path, FsyncPolicy::Always, 0).unwrap();
        assert_eq!(replay.truncated_bytes, 0);
        let r = &replay.records;
        assert_eq!(r.len(), 3);
        assert_eq!((r[0].lsn, r[0].op, r[0].tid), (0, WalOp::Insert, 7));
        assert_eq!(r[0].payload, b"abc");
        assert_eq!((r[1].lsn, r[1].op), (1, WalOp::Delete));
        assert_eq!((r[2].lsn, r[2].op, r[2].tid), (2, WalOp::Upsert, 9));
        assert_eq!(wal.next_lsn(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let path = tmp("torn.wal");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path, FsyncPolicy::OsOnly, 0).unwrap();
            wal.append(WalOp::Insert, 1, b"one").unwrap();
            wal.append(WalOp::Insert, 2, b"two").unwrap();
        }
        // Simulate a kill mid-append: chop bytes off the tail.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let (mut wal, replay) = Wal::open(&path, FsyncPolicy::OsOnly, 0).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].tid, 1);
        assert!(replay.truncated_bytes > 0);
        // The torn record's LSN is reused — it was never acknowledged.
        assert_eq!(wal.next_lsn(), 1);
        wal.append(WalOp::Insert, 3, b"three").unwrap();
        let (_, replay) = Wal::open(&path, FsyncPolicy::OsOnly, 0).unwrap();
        assert_eq!(
            replay.records.iter().map(|r| r.tid).collect::<Vec<_>>(),
            vec![1, 3]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_stops_replay_at_the_flip() {
        let path = tmp("corrupt.wal");
        std::fs::remove_file(&path).ok();
        {
            let (mut wal, _) = Wal::open(&path, FsyncPolicy::OsOnly, 0).unwrap();
            for tid in 0..5 {
                wal.append(WalOp::Insert, tid, b"payload").unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let frame = bytes.len() / 5;
        bytes[3 * frame + HEADER_BYTES + 2] ^= 0xFF; // corrupt record 3's body
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path, FsyncPolicy::OsOnly, 0).unwrap();
        assert_eq!(
            replay.records.iter().map(|r| r.tid).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn batch_append_is_one_contiguous_group() {
        let path = tmp("batch.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always, 0).unwrap();
        let lsns = wal
            .append_batch(&[
                (WalOp::Insert, 1, b"a".to_vec()),
                (WalOp::Insert, 2, b"b".to_vec()),
                (WalOp::Delete, 1, b"a".to_vec()),
            ])
            .unwrap();
        assert_eq!(lsns, vec![0, 1, 2]);
        drop(wal);
        let (_, replay) = Wal::open(&path, FsyncPolicy::OsOnly, 0).unwrap();
        assert_eq!(replay.records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_keeps_lsn_monotone_via_base() {
        let path = tmp("truncate.wal");
        std::fs::remove_file(&path).ok();
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::OsOnly, 0).unwrap();
        for tid in 0..4 {
            wal.append(WalOp::Insert, tid, b"x").unwrap();
        }
        wal.truncate().unwrap(); // checkpoint at watermark 3
        assert_eq!(wal.bytes(), 0);
        assert_eq!(wal.next_lsn(), 4);
        wal.append(WalOp::Insert, 9, b"y").unwrap();
        drop(wal);
        // Reopen passing watermark + 1 as the base LSN.
        let (wal, replay) = Wal::open(&path, FsyncPolicy::OsOnly, 4).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].lsn, 4);
        assert_eq!(wal.next_lsn(), 5);
        std::fs::remove_file(&path).ok();
    }

    proptest! {
        // Any record set survives an encode → decode roundtrip, and any
        // truncation of the byte stream yields a prefix of the records —
        // never garbage, never reordering.
        #[test]
        fn records_roundtrip_and_any_truncation_is_a_prefix(
            ops in prop::collection::vec((0u8..3, 0u64..1000, prop::collection::vec(0u8..255, 0..40)), 0..12),
            cut in 0usize..2000
        ) {
            let mut buf = Vec::new();
            let mut want = Vec::new();
            for (i, (op, tid, payload)) in ops.iter().enumerate() {
                let op = WalOp::from_byte(op + 1).unwrap();
                encode_record(&mut buf, i as u64, op, *tid, payload);
                want.push(WalRecord { lsn: i as u64, op, tid: *tid, payload: payload.clone() });
            }
            // Full roundtrip.
            let (got, len) = decode_records(&buf);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(len as usize, buf.len());
            // Any truncation decodes to a strict prefix.
            let cut = cut.min(buf.len());
            let (got, len) = decode_records(&buf[..cut]);
            prop_assert!(len as usize <= cut);
            prop_assert_eq!(got.len() <= want.len(), true);
            prop_assert_eq!(&want[..got.len()], &got[..]);
        }

        // Flipping any single byte never yields records that differ from
        // a prefix-of-original followed by nothing (CRC catches the flip
        // at or before the damaged record).
        #[test]
        fn single_byte_corruption_never_fabricates_records(
            tids in prop::collection::vec(0u64..100, 1..8),
            flip in 0usize..500,
            xor in 1u8..255
        ) {
            let mut buf = Vec::new();
            for (i, tid) in tids.iter().enumerate() {
                encode_record(&mut buf, i as u64, WalOp::Insert, *tid, b"payload");
            }
            let (want, _) = decode_records(&buf);
            let flip = flip % buf.len();
            buf[flip] ^= xor;
            let (got, _) = decode_records(&buf);
            // Whatever survives is a prefix of the original records,
            // except possibly a record whose *length field* grew to
            // swallow later bytes — the CRC rejects that too.
            prop_assert!(got.len() <= want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                // Records before the flipped byte are untouched.
                if g != w { prop_assert!(false, "fabricated record"); }
            }
        }
    }
}
