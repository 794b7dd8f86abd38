//! Workspace smoke test: every example target must build and run to
//! completion, so examples can never silently rot.
//!
//! Examples are run in release mode (they push six-figure tuple counts
//! through the cache simulator); the outer `cargo test` run is free to
//! stay in debug.

use std::path::Path;
use std::process::Command;

#[test]
fn every_example_runs_to_completion() {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    let mut examples: Vec<String> = std::fs::read_dir(Path::new(manifest_dir).join("examples"))
        .expect("examples/ directory")
        .filter_map(|e| {
            let path = e.expect("readable dir entry").path();
            (path.extension().is_some_and(|x| x == "rs"))
                .then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    examples.sort();
    assert!(!examples.is_empty(), "no examples/*.rs found");
    for name in &examples {
        let output = Command::new(env!("CARGO"))
            .args(["run", "--quiet", "--release", "--example", name])
            .current_dir(manifest_dir)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn cargo for example {name}: {e}"));
        assert!(
            output.status.success(),
            "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}
