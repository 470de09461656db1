#!/usr/bin/env bash
# The gates the workspace CI applies to its own crates, applied to this
# package, which lives outside the workspace: rustfmt, clippy and rustdoc at
# -D warnings, then the unit and --smoke tests. Run from anywhere:
#
#   bash perfbench/check.sh
set -euo pipefail
manifest="$(cd "$(dirname "$0")" && pwd)/Cargo.toml"
cargo fmt --check --manifest-path "$manifest"
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --manifest-path "$manifest"
cargo test --offline --release --manifest-path "$manifest"
