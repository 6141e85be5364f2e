//! Campaign checkpointing: periodic snapshots of completed injection
//! outcomes, so an interrupted fault-injection campaign resumes from its
//! last checkpoint instead of starting over.
//!
//! Format `GLVCKPT1`: a little-endian stream with a magic/version header, a
//! fingerprint binding the snapshot to one (program, input, configuration)
//! triple, the completed `(site index, record)` pairs, and a trailing
//! FNV-1a checksum — the same integrity scheme as the `GLVFIT01` ground
//! truth artifacts. Decoding is infallible by design at the call site: any
//! truncated, tampered, foreign or version-mismatched snapshot reads as
//! *no checkpoint* and the campaign cold-starts.

use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

use glaive_sim::Outcome;

use crate::serdes::{fnv1a, put_slot, put_usize, read_slot, Reader};
use crate::truth::{BitSite, InjectionRecord};

/// Magic + format version of campaign checkpoints. Bump the trailing digit
/// on any layout change: decoders treat other versions as a cold start.
const MAGIC: &[u8; 8] = b"GLVCKPT1";

/// A snapshot of a partially-completed campaign: which injections (by
/// deterministic site-enumeration index) have finished, and their outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCheckpoint {
    /// Binds the snapshot to one campaign: program content, input image,
    /// campaign parameters and planned injection count all feed this hash.
    /// A mismatch (different benchmark, different stride…) is a cold start.
    pub fingerprint: u64,
    /// Total planned injections, for progress reporting on resume.
    pub total: usize,
    /// Completed `(spec index, record)` pairs, in ascending index order.
    pub records: Vec<(usize, InjectionRecord)>,
}

impl CampaignCheckpoint {
    /// Serialises the snapshot to bytes in the `GLVCKPT1` format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.records.len() * 32);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.fingerprint.to_le_bytes());
        put_usize(&mut out, self.total);
        put_usize(&mut out, self.records.len());
        for (index, r) in &self.records {
            put_usize(&mut out, *index);
            put_usize(&mut out, r.site.pc);
            put_slot(&mut out, r.site.slot);
            out.push(r.site.bit);
            out.extend_from_slice(&r.instance.to_le_bytes());
            out.push(r.outcome.label() as u8);
        }
        let checksum = fnv1a(&out[MAGIC.len()..]);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Restores a snapshot previously produced by
    /// [`CampaignCheckpoint::to_bytes`]. Returns `None` for anything that
    /// is not an intact current-version checkpoint — truncation, byte
    /// corruption, a foreign file, or an older/newer format version — so
    /// callers uniformly treat a bad snapshot as a cold start.
    pub fn from_bytes(bytes: &[u8]) -> Option<CampaignCheckpoint> {
        if bytes.len() < MAGIC.len() + 8 || bytes[..MAGIC.len()] != *MAGIC {
            return None;
        }
        let (head, tail) = bytes.split_at(bytes.len() - 8);
        let declared = u64::from_le_bytes(tail.try_into().ok()?);
        if fnv1a(&head[MAGIC.len()..]) != declared {
            return None;
        }
        let mut r = Reader::new(head, MAGIC.len());
        let fingerprint = r.u64().ok()?;
        let total = r.usize().ok()?;
        let count = r.count(8 + 8 + 9 + 1 + 8 + 1).ok()?;
        let mut records = Vec::with_capacity(count);
        let mut prev: Option<usize> = None;
        for _ in 0..count {
            let index = r.usize().ok()?;
            if index >= total || prev.is_some_and(|p| index <= p) {
                return None; // out of range or not strictly ascending
            }
            prev = Some(index);
            let pc = r.usize().ok()?;
            let slot = read_slot(&mut r).ok()?;
            let bit = r.u8().ok()?;
            let instance = r.u64().ok()?;
            let outcome = Outcome::from_label(r.u8().ok()? as usize)?;
            records.push((
                index,
                InjectionRecord {
                    site: BitSite { pc, slot, bit },
                    instance,
                    outcome,
                },
            ));
        }
        if r.pos != head.len() {
            return None; // trailing bytes after payload
        }
        Some(CampaignCheckpoint {
            fingerprint,
            total,
            records,
        })
    }
}

/// Durable storage for campaign checkpoints.
///
/// Sinks are dumb byte stores: the campaign owns the format and the
/// fingerprint validation. `save` and `clear` are best-effort — checkpoint
/// I/O failures must never fail the campaign itself — and `load` returns
/// `None` when nothing (usable) is stored.
pub trait CheckpointSink: Sync {
    /// The stored snapshot bytes, if any.
    fn load(&self) -> Option<Vec<u8>>;
    /// Stores a snapshot, replacing any previous one. Best-effort.
    fn save(&self, bytes: &[u8]);
    /// Removes the stored snapshot (called after the campaign completes).
    fn clear(&self);
}

/// A [`CheckpointSink`] backed by one file, written through a temp-file +
/// atomic-rename so a crash mid-save never leaves a torn snapshot (the
/// same discipline as the artifact cache).
#[derive(Debug, Clone)]
pub struct FileCheckpoint {
    path: PathBuf,
}

impl FileCheckpoint {
    /// A sink storing its snapshot at `path`.
    pub fn new(path: impl Into<PathBuf>) -> FileCheckpoint {
        FileCheckpoint { path: path.into() }
    }

    /// The snapshot location.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl CheckpointSink for FileCheckpoint {
    fn load(&self) -> Option<Vec<u8>> {
        std::fs::read(&self.path).ok()
    }

    fn save(&self, bytes: &[u8]) {
        let Some(parent) = self.path.parent() else {
            return;
        };
        if std::fs::create_dir_all(parent).is_err() {
            return;
        }
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(format!(".tmp-{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        if std::fs::write(&tmp, bytes).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }

    fn clear(&self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// An in-memory [`CheckpointSink`] for tests and embedding.
#[derive(Debug, Default)]
pub struct MemoryCheckpoint {
    bytes: Mutex<Option<Vec<u8>>>,
}

impl MemoryCheckpoint {
    /// A fresh, empty sink.
    pub fn new() -> MemoryCheckpoint {
        MemoryCheckpoint::default()
    }
}

impl CheckpointSink for MemoryCheckpoint {
    fn load(&self) -> Option<Vec<u8>> {
        self.bytes.lock().expect("bytes lock").clone()
    }

    fn save(&self, bytes: &[u8]) {
        *self.bytes.lock().expect("bytes lock") = Some(bytes.to_vec());
    }

    fn clear(&self) {
        *self.bytes.lock().expect("bytes lock") = None;
    }
}

impl fmt::Display for CampaignCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checkpoint {}/{} injections (fingerprint {:016x})",
            self.records.len(),
            self.total,
            self.fingerprint
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glaive_sim::OperandSlot;

    fn sample() -> CampaignCheckpoint {
        let rec = |i: usize, bit: u8, outcome| {
            (
                i,
                InjectionRecord {
                    site: BitSite {
                        pc: i * 2,
                        slot: OperandSlot::Use(0),
                        bit,
                    },
                    instance: i as u64,
                    outcome,
                },
            )
        };
        CampaignCheckpoint {
            fingerprint: 0xdead_beef_cafe_f00d,
            total: 100,
            records: vec![
                rec(0, 0, Outcome::Masked),
                rec(3, 8, Outcome::Sdc),
                rec(7, 16, Outcome::Crash),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ckpt = sample();
        let restored = CampaignCheckpoint::from_bytes(&ckpt.to_bytes()).expect("roundtrip");
        assert_eq!(restored, ckpt);
    }

    #[test]
    fn truncated_corrupt_and_foreign_snapshots_are_cold_starts() {
        let bytes = sample().to_bytes();
        assert!(CampaignCheckpoint::from_bytes(b"short").is_none());
        assert!(CampaignCheckpoint::from_bytes(b"NOTCKPT1-with-padding-bytes").is_none());
        for cut in [1usize, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                CampaignCheckpoint::from_bytes(&bytes[..cut]).is_none(),
                "cut at {cut} must cold-start"
            );
        }
        for pos in [MAGIC.len(), bytes.len() / 2, bytes.len() - 2] {
            let mut tampered = bytes.clone();
            tampered[pos] ^= 0x20;
            assert!(
                CampaignCheckpoint::from_bytes(&tampered).is_none(),
                "flip at {pos} must cold-start"
            );
        }
    }

    #[test]
    fn version_mismatch_is_a_cold_start() {
        let mut bytes = sample().to_bytes();
        bytes[7] = b'9'; // pretend a future format version
        assert!(CampaignCheckpoint::from_bytes(&bytes).is_none());
    }

    #[test]
    fn non_ascending_or_out_of_range_indices_are_rejected() {
        let mut ckpt = sample();
        ckpt.records[1].0 = 0; // duplicate of records[0]
        assert!(CampaignCheckpoint::from_bytes(&ckpt.to_bytes()).is_none());
        let mut ckpt = sample();
        ckpt.records[2].0 = 100; // == total, out of range
        assert!(CampaignCheckpoint::from_bytes(&ckpt.to_bytes()).is_none());
    }

    #[test]
    fn file_sink_roundtrips_and_clears() {
        let dir = std::env::temp_dir().join(format!("glaive-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = FileCheckpoint::new(dir.join("nested").join("c.bin"));
        assert!(sink.load().is_none());
        sink.save(b"snapshot");
        assert_eq!(sink.load().as_deref(), Some(&b"snapshot"[..]));
        sink.clear();
        assert!(sink.load().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
