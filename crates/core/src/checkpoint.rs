//! Crash-consistent checkpoint/restart for the distributed dycore: the
//! `FV3CKPT1` format (ISSUE 5).
//!
//! A checkpoint is the full restart basis of a run — every rank's
//! prognostic [`DycoreState`] plus the step counter and the driver
//! configuration it was taken under — encoded with the same
//! [`FieldSnapshot`] codec as the `FV3GOLD1` golden files, with a
//! per-field FNV-1a checksum appended so silent on-disk corruption is
//! caught at restore time instead of producing a subtly wrong forecast.
//!
//! Writes are crash-consistent: the file is staged under a temporary
//! name in the target directory, fsynced, then atomically renamed into
//! place, so a kill at any instant leaves either the previous checkpoint
//! or the complete new one — never a torn file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! "FV3CKPT1"                      8-byte magic
//! u64  step                       driver steps completed
//! u32  tile_n, rt, nk             partition / vertical extent
//! u32  n_split, k_split           sub-stepping
//! f64  dt, dddmp                  time step, divergence damping
//! u8   has_nord4; f64 nord4       optional 4th-order damping
//! u32  n_ranks
//! per rank:
//!   u32 n_fields
//!   per field: FieldSnapshot::encode || u64 fnv1a(values)
//! ```

use crate::driver::{DistributedDycore, DriverConfig};
use dataflow::snapshot::{put_f64, put_u32, put_u64, FieldSnapshot, Reader};
use fv3::dyn_core::DycoreConfig;
use fv3::state::{DycoreState, PROGNOSTICS};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// 8-byte magic prefix of the checkpoint format.
pub const MAGIC: &[u8; 8] = b"FV3CKPT1";

/// In-memory provenance of a checkpoint: which driver instance captured
/// it and at which mutation-clock reading. Lets
/// [`DistributedDycore::restore`] skip ranks whose state has not changed
/// since the capture (rank-aware rollback). Never serialized — a
/// checkpoint loaded from disk has no basis and restores every rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointBasis {
    /// Process-unique id of the capturing [`DistributedDycore`].
    pub instance: u64,
    /// The driver's mutation clock at capture time.
    pub clock: u64,
}

/// A captured restart basis: step counter, configuration, and every
/// rank's prognostic state.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Driver steps completed when the checkpoint was taken.
    pub step: u64,
    /// Configuration of the run that wrote it.
    pub config: DriverConfig,
    /// One prognostic state per rank, in rank order. Immutable once
    /// captured and behind an `Arc`: a clone — or the same states under
    /// another instance's [`basis`](Self::basis) — is a handle, not a copy.
    pub states: Arc<[DycoreState]>,
    /// In-memory capture provenance (see [`CheckpointBasis`]); `None`
    /// for checkpoints read back from disk or built by hand.
    pub basis: Option<CheckpointBasis>,
}

impl Checkpoint {
    /// Snapshot a running dycore: one copy of every rank's state.
    pub fn capture(d: &DistributedDycore) -> Self {
        d.state_copies.fetch_add(d.states.len() as u64, Ordering::Relaxed);
        Checkpoint {
            step: d.step_index(),
            config: d.config,
            states: d.states.iter().cloned().collect(),
            basis: Some(d.mutation_basis()),
        }
    }

    /// Serialize to the `FV3CKPT1` wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        Checkpoint::encode(self.step, &self.config, &self.states)
    }

    /// The `FV3CKPT1` stream of `states` at `step` under `config`, encoded
    /// from a borrow: what [`to_bytes`](Self::to_bytes) writes for a
    /// checkpoint holding them.
    pub fn encode(step: u64, c: &DriverConfig, states: &[DycoreState]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        put_u64(&mut out, step);
        put_u32(&mut out, c.tile_n as u32);
        put_u32(&mut out, c.rt as u32);
        put_u32(&mut out, c.nk as u32);
        put_u32(&mut out, c.dycore.n_split);
        put_u32(&mut out, c.dycore.k_split);
        put_f64(&mut out, c.dycore.dt);
        put_f64(&mut out, c.dycore.dddmp);
        match c.dycore.nord4_damp {
            Some(d) => {
                out.push(1);
                put_f64(&mut out, d);
            }
            None => {
                out.push(0);
                put_f64(&mut out, 0.0);
            }
        }
        put_u32(&mut out, states.len() as u32);
        for state in states {
            let fields = state.fields();
            put_u32(&mut out, fields.len() as u32);
            for (name, arr) in fields {
                let snap = FieldSnapshot::capture(name, arr);
                snap.encode(&mut out);
                put_u64(&mut out, snap.checksum());
            }
        }
        out
    }

    /// Decode and verify a checkpoint. Any corruption — truncation, bad
    /// magic, implausible counts, checksum mismatch, wrong field set —
    /// yields a descriptive `Err`, never a panic.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, String> {
        let mut r = Reader::new(bytes);
        let magic = r.take(8)?;
        if magic != MAGIC {
            return Err(format!(
                "bad magic {:?}: not an FV3CKPT1 checkpoint",
                &magic[..magic.len().min(8)]
            ));
        }
        let step = r.u64()?;
        let tile_n = r.u32()? as usize;
        let rt = r.u32()? as usize;
        let nk = r.u32()? as usize;
        let n_split = r.u32()?;
        let k_split = r.u32()?;
        let dt = r.f64()?;
        let dddmp = r.f64()?;
        let has_nord4 = r.take(1)?[0];
        let nord4 = r.f64()?;
        let nord4_damp = match has_nord4 {
            0 => None,
            1 => Some(nord4),
            other => return Err(format!("bad nord4 flag {other}")),
        };
        if tile_n == 0 || rt == 0 || nk == 0 {
            return Err(format!(
                "degenerate config tile_n={tile_n} rt={rt} nk={nk}"
            ));
        }
        if !tile_n.is_multiple_of(rt) {
            return Err(format!("tile_n {tile_n} not divisible by rt {rt}"));
        }
        let config = DriverConfig {
            tile_n,
            rt,
            nk,
            dycore: DycoreConfig {
                n_split,
                k_split,
                dt,
                dddmp,
                nord4_damp,
            },
        };
        // Rank count is validated against the payload here; whether it
        // matches a target partition is the restorer's concern
        // (`DistributedDycore::restore` / `resume_from`), which lets
        // single-rank profiling runs use the same format.
        let n_ranks = r.u32()? as usize;
        if n_ranks == 0 {
            return Err("checkpoint holds zero ranks".to_string());
        }
        r.check_count(n_ranks, 4, "rank")?;
        let sub_n = tile_n / rt;
        let mut states = Vec::with_capacity(n_ranks);
        for rank in 0..n_ranks {
            let n_fields = r.u32()? as usize;
            if n_fields != PROGNOSTICS.len() {
                return Err(format!(
                    "rank {rank}: {n_fields} fields, expected {}",
                    PROGNOSTICS.len()
                ));
            }
            r.check_count(n_fields, 32, "field")?;
            let mut state = DycoreState::zeros(sub_n, nk);
            for want in PROGNOSTICS {
                let snap = FieldSnapshot::decode(&mut r)?;
                let sum = r.u64()?;
                if snap.name != want {
                    return Err(format!(
                        "rank {rank}: field '{}' where '{want}' expected",
                        snap.name
                    ));
                }
                if snap.checksum() != sum {
                    return Err(format!(
                        "rank {rank} field '{want}': checksum mismatch (stored \
                         {sum:#018x}, computed {:#018x})",
                        snap.checksum()
                    ));
                }
                if snap.domain != [sub_n, sub_n, nk] {
                    return Err(format!(
                        "rank {rank} field '{want}': domain {:?} does not match \
                         subdomain [{sub_n}, {sub_n}, {nk}]",
                        snap.domain
                    ));
                }
                *state.field_mut(want) = snap.to_array();
            }
            states.push(state);
        }
        if r.remaining() != 0 {
            return Err(format!("{} trailing bytes after checkpoint", r.remaining()));
        }
        Ok(Checkpoint {
            step,
            config,
            states: states.into(),
            basis: None,
        })
    }

    /// Write atomically to `path`: stage to a sibling temp file, fsync,
    /// rename into place, then best-effort fsync the directory. Returns
    /// the byte size written.
    pub fn write_atomic(&self, path: &Path) -> io::Result<u64> {
        let bytes = self.to_bytes();
        let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(dir) = dir {
            fs::create_dir_all(dir)?;
        }
        let tmp = tmp_path(path);
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        if let Some(dir) = dir {
            // Persist the rename itself; failure here is not fatal on
            // filesystems without directory fsync.
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(bytes.len() as u64)
    }

    /// Load and verify a checkpoint file; decode errors surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: &Path) -> io::Result<Checkpoint> {
        let bytes = fs::read(path)?;
        Checkpoint::from_bytes(&bytes).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

/// Sibling temp name used by [`Checkpoint::write_atomic`] (same
/// directory, so the rename is atomic on every POSIX filesystem).
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("ckpt"),
        |n| n.to_os_string(),
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// Conventional checkpoint filename for a step (`ckpt_STEP.fv3ckpt`).
pub fn step_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("ckpt_{step:08}.fv3ckpt"))
}

/// The latest checkpoint in `dir` by step number encoded in the
/// filename, if any.
pub fn latest_in(dir: &Path) -> io::Result<Option<PathBuf>> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(step) = name
            .strip_prefix("ckpt_")
            .and_then(|s| s.strip_suffix(".fv3ckpt"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if best.as_ref().is_none_or(|(b, _)| step > *b) {
            best = Some((step, path));
        }
    }
    Ok(best.map(|(_, p)| p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataflow::graph::ExpansionAttrs;

    fn small() -> DistributedDycore {
        let cfg = DriverConfig::six_rank(
            8,
            3,
            DycoreConfig {
                n_split: 1,
                k_split: 1,
                dt: 4.0,
                dddmp: 0.02,
                nord4_damp: Some(0.5),
            },
        );
        DistributedDycore::new(cfg, &ExpansionAttrs::tuned())
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let mut d = small();
        d.step();
        let ck = Checkpoint::capture(&d);
        let back = Checkpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.step, ck.step);
        assert_eq!(back.config.tile_n, ck.config.tile_n);
        assert_eq!(back.config.dycore.nord4_damp, Some(0.5));
        for (a, b) in ck.states.iter().zip(back.states.iter()) {
            for ((_, fa), (_, fb)) in a.fields().iter().zip(b.fields().iter()) {
                let (va, vb) = (fa.export_logical(), fb.export_logical());
                assert_eq!(va.len(), vb.len());
                for (x, y) in va.iter().zip(&vb) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn flipped_bit_is_caught_by_checksum() {
        let d = small();
        let mut bytes = Checkpoint::capture(&d).to_bytes();
        // Flip one bit in the middle of the value payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(
            err.contains("checksum") || err.contains("domain") || err.contains("field"),
            "{err}"
        );
    }

    #[test]
    fn truncation_and_bad_magic_error_descriptively() {
        let d = small();
        let bytes = Checkpoint::capture(&d).to_bytes();
        for cut in [0, 7, 8, 40, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Checkpoint::from_bytes(&bad).unwrap_err().contains("magic"));
        let mut trailing = bytes;
        trailing.push(0);
        assert!(Checkpoint::from_bytes(&trailing)
            .unwrap_err()
            .contains("trailing"));
    }

    #[test]
    fn atomic_write_load_and_latest() {
        let d = small();
        let dir = std::env::temp_dir().join(format!("fv3ckpt_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let ck = Checkpoint::capture(&d);
        let p0 = step_path(&dir, 0);
        let written = ck.write_atomic(&p0).unwrap();
        assert_eq!(written, ck.to_bytes().len() as u64);
        let mut ck5 = ck.clone();
        ck5.step = 5;
        ck5.write_atomic(&step_path(&dir, 5)).unwrap();
        assert_eq!(latest_in(&dir).unwrap(), Some(step_path(&dir, 5)));
        let loaded = Checkpoint::load(&p0).unwrap();
        assert_eq!(loaded.step, 0);
        // No temp droppings left behind.
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(stray.is_empty(), "stray temp files: {stray:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
