//! Fault injection for the shard coordinator: children that die before
//! writing, write truncated frames, corrupt their digests, or hang must
//! all be **recovered by deterministic re-execution** — the merged
//! campaign digest stays bit-identical to the single-process sweep — and
//! a persistently failing shard must surface an actionable error, not a
//! hang. Faults are planted through the `PCKPT_SHARD_FAIL` hook, which
//! by default fires only on a child's first attempt so the retry heals.

use proptest::prelude::*;

use pckpt::core::{
    decode_frame, encode_frame, run_grid_filtered, run_grid_sharded_opts, RunnerConfig,
    ShardOptions, ShardSpec,
};
use pckpt::prelude::*;

mod shard_common;

/// Child entry point (see `shard_common::maybe_run_shard_child`).
#[test]
fn shard_child_entry() {
    let _ = shard_common::maybe_run_shard_child();
}

/// A 3-cell, 2-model sweep small enough to re-execute several times.
const RECIPE: &str = "sweep|XGC|1.5,1,0.5|B,P2";

fn config() -> RunnerConfig {
    RunnerConfig::new(6, 61)
}

fn golden() -> String {
    let cells = shard_common::cells_from_recipe(RECIPE).unwrap();
    let leads = LeadTimeModel::desh_default();
    shard_common::grid_digest(&run_grid_filtered(&cells, &leads, &config(), None))
}

/// Injects `fail` into one coordinator run at 2 shards and returns the
/// result plus the unsharded golden digest.
fn run_with_fault(fail: &str, opts: &ShardOptions) -> Result<(String, usize), String> {
    let cells = shard_common::cells_from_recipe(RECIPE).unwrap();
    let leads = LeadTimeModel::desh_default();
    let launcher =
        shard_common::launcher_for("shard_child_entry", RECIPE).with_env("PCKPT_SHARD_FAIL", fail);
    let grid = run_grid_sharded_opts(&cells, &leads, &config(), opts, &launcher, None)?;
    let meta = grid.shard_meta.expect("sharded runs report shard_meta");
    assert_eq!(meta.shards, 2, "plan must fan out to 2 shards");
    Ok((shard_common::grid_digest(&grid), meta.reexecutions))
}

#[test]
fn killed_child_is_reexecuted_to_identical_digest() {
    let (digest, reexecutions) =
        run_with_fault("0:kill", &ShardOptions::new(2)).expect("coordinator must recover");
    assert_eq!(reexecutions, 1, "exactly the killed shard re-executes");
    assert_eq!(digest, golden(), "recovery must not perturb a single bit");
}

#[test]
fn truncated_frame_is_reexecuted_to_identical_digest() {
    let (digest, reexecutions) =
        run_with_fault("1:truncate", &ShardOptions::new(2)).expect("coordinator must recover");
    assert_eq!(reexecutions, 1);
    assert_eq!(digest, golden());
}

#[test]
fn corrupted_frame_digest_is_reexecuted_to_identical_digest() {
    let (digest, reexecutions) =
        run_with_fault("0:baddigest", &ShardOptions::new(2)).expect("coordinator must recover");
    assert_eq!(reexecutions, 1);
    assert_eq!(digest, golden());
}

#[test]
fn hung_child_is_killed_and_reexecuted_to_identical_digest() {
    let opts = ShardOptions {
        shards: 2,
        max_attempts: 3,
        timeout_millis: 2_000,
    };
    let (digest, reexecutions) =
        run_with_fault("1:hang", &opts).expect("watchdog must break the hang");
    assert_eq!(reexecutions, 1);
    assert_eq!(digest, golden());
}

#[test]
fn persistently_failing_shard_errors_instead_of_hanging() {
    let opts = ShardOptions {
        shards: 2,
        max_attempts: 2,
        timeout_millis: 600_000,
    };
    // `:always` defeats the attempt gate: every retry dies too.
    let err = run_with_fault("0:kill:always", &opts)
        .expect_err("a shard that always dies must surface an error");
    assert!(err.contains("shard 0"), "error names the shard: {err}");
    assert!(err.contains("2 attempts"), "error counts the attempts: {err}");
}

/// Produces a real frame by running one shard in-process (the child
/// entry point minus the subprocess), for codec property testing.
fn real_frame_bytes(seed: u64, runs: usize, index: usize) -> Vec<u8> {
    let cells = shard_common::cells_from_recipe(RECIPE).unwrap();
    let leads = LeadTimeModel::desh_default();
    let out = std::env::temp_dir().join(format!("pckpt-frame-prop-{}-{seed}-{index}", std::process::id()));
    let spec = ShardSpec {
        index,
        run_splits: 2,
        group_splits: 1,
        out: out.clone(),
        fail: None,
    };
    pckpt::core::run_shard_child(&cells, &leads, &RunnerConfig::new(runs, seed), None, &spec)
        .expect("in-process shard");
    let bytes = std::fs::read(&out).expect("frame file");
    std::fs::remove_file(&out).ok();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Frame codec contract on real frames: decode∘encode is the
    /// identity (canonical bytes), and **every** strict prefix — the
    /// shapes a crashed or interrupted writer can leave behind — is
    /// rejected rather than misparsed.
    #[test]
    fn frame_codec_roundtrips_and_rejects_every_truncation(
        seed in 0u64..10_000,
        runs in 2usize..=4,
        index in 0usize..2,
    ) {
        let bytes = real_frame_bytes(seed, runs, index);
        let frame = decode_frame(&bytes).expect("full frame decodes");
        prop_assert_eq!(&encode_frame(&frame), &bytes, "re-encode must be canonical");
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {} / {} bytes must not decode",
                cut,
                bytes.len()
            );
        }
        // A flipped byte anywhere trips the trailing content digest.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        prop_assert!(decode_frame(&corrupt).is_err(), "bit flip must be detected");
    }
}
