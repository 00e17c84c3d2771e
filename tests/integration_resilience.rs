//! End-to-end resilience acceptance (ISSUE 5): kill-and-resume
//! bit-identity, and supervised-run transparency when nothing fails.
//!
//! No fault plan is armed anywhere in this binary — these tests prove
//! the resilience machinery is invisible when idle.

use dataflow::graph::ExpansionAttrs;
use fv3::dyn_core::DycoreConfig;
use fv3core::checkpoint::{latest_in, step_path, Checkpoint};
use fv3core::{DistributedDycore, DriverConfig};
use resilience::{Supervisor, SupervisorPolicy};
use std::fs;
use std::path::PathBuf;

/// The c8L6 six-rank configuration of the acceptance criteria.
fn c8l6() -> DistributedDycore {
    let cfg = DriverConfig::six_rank(
        8,
        6,
        DycoreConfig {
            n_split: 1,
            k_split: 1,
            dt: 4.0,
            dddmp: 0.02,
            nord4_damp: None,
        },
    );
    DistributedDycore::new(cfg, &ExpansionAttrs::tuned())
}

fn assert_bit_identical(a: &DistributedDycore, b: &DistributedDycore) {
    assert_eq!(a.step_index(), b.step_index());
    for (r, (sa, sb)) in a.states.iter().zip(&b.states).enumerate() {
        for ((name, fa), (_, fb)) in sa.fields().iter().zip(sb.fields().iter()) {
            for (n, (x, y)) in fa
                .export_logical()
                .iter()
                .zip(&fb.export_logical())
                .enumerate()
            {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "rank {r} field {name} element {n}: {x} vs {y}"
                );
            }
        }
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fv3_resilience_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_and_resume_is_bit_identical_to_uninterrupted_run() {
    let dir = scratch_dir("resume");

    // Uninterrupted reference: 6 steps.
    let mut reference = c8l6();
    for _ in 0..6 {
        reference.step();
    }

    // Interrupted run: 3 steps with checkpoints on disk, then the
    // process "dies" (the dycore is dropped; all in-memory state lost).
    {
        let mut d = c8l6();
        for _ in 0..3 {
            d.step();
            Checkpoint::capture(&d)
                .write_atomic(&step_path(&dir, d.step_index()))
                .unwrap();
        }
    }

    // Resurrection from the newest checkpoint file alone.
    let newest = latest_in(&dir).unwrap().expect("checkpoints on disk");
    assert_eq!(newest, step_path(&dir, 3));
    let mut resumed = DistributedDycore::resume_from(&newest).unwrap();
    assert_eq!(resumed.step_index(), 3);
    for _ in 0..3 {
        resumed.step();
    }

    assert_bit_identical(&resumed, &reference);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resume_restores_config_from_the_checkpoint_itself() {
    let dir = scratch_dir("config");
    let mut d = c8l6();
    d.step();
    let path = step_path(&dir, d.step_index());
    Checkpoint::capture(&d).write_atomic(&path).unwrap();

    let ck = Checkpoint::load(&path).unwrap();
    assert_eq!(ck.step, 1);
    assert_eq!(ck.config.tile_n, 8);
    assert_eq!(ck.config.nk, 6);
    assert_eq!(ck.config.dycore.dt, 4.0);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn idle_supervision_is_bit_identical_to_a_plain_step_loop() {
    // Plain loop.
    let mut plain = c8l6();
    for _ in 0..3 {
        plain.step();
    }

    // Supervised, checkpointing fully off: the supervisor must be a
    // transparent wrapper.
    let mut off = c8l6();
    let mut sup = Supervisor::new(SupervisorPolicy {
        checkpoint_every: 0,
        ..SupervisorPolicy::default()
    });
    let report = sup.run(&mut off, 3).unwrap();
    assert!(report.clean());
    assert_eq!(report.checkpoint_writes, 0);
    assert_bit_identical(&off, &plain);

    // Supervised with in-memory checkpointing every step: captures read
    // the state but must not perturb it.
    let mut on = c8l6();
    let mut sup = Supervisor::new(SupervisorPolicy::default());
    let report = sup.run(&mut on, 3).unwrap();
    assert!(report.clean());
    assert_eq!(report.restores, 0);
    assert_bit_identical(&on, &plain);

    // And with on-disk persistence as well.
    let dir = scratch_dir("idle");
    let mut disk = c8l6();
    let mut sup = Supervisor::new(SupervisorPolicy {
        checkpoint_dir: Some(dir.clone()),
        ..SupervisorPolicy::default()
    });
    let report = sup.run(&mut disk, 3).unwrap();
    assert!(report.clean());
    assert_eq!(report.checkpoint_writes, 4, "step 0 basis + one per step");
    assert!(report.checkpoint_bytes > 0);
    assert_bit_identical(&disk, &plain);
    assert!(latest_in(&dir).unwrap().is_some());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_checkpoint_writes_are_invisible_to_latest_in() {
    // A crash mid-write leaves only a `.tmp` file, which `latest_in`
    // ignores and the next atomic write replaces.
    let dir = scratch_dir("torn");
    let d = c8l6();
    let ck = Checkpoint::capture(&d);
    fs::create_dir_all(&dir).unwrap();
    let torn = ck.to_bytes();
    fs::write(dir.join("ckpt_00000007.fv3ckpt.tmp"), &torn[..torn.len() / 2]).unwrap();
    assert_eq!(latest_in(&dir).unwrap(), None);

    ck.write_atomic(&step_path(&dir, 0)).unwrap();
    assert_eq!(latest_in(&dir).unwrap(), Some(step_path(&dir, 0)));
    // The half-written file is still not a candidate, and loading the
    // real one verifies every checksum.
    assert!(Checkpoint::load(&step_path(&dir, 0)).is_ok());
    let _ = fs::remove_dir_all(&dir);
}
