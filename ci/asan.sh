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
# Why both modes: with the cache on, a node is a class block carved from a
# slab of the process-wide pool, and a freed one goes to a magazine or back
# to the pool, never to `free` — ASan sees one live slab, and a read after
# retirement returns whatever the block holds now. So with the cache on the
# use-after-free detectors are the debug-build poison (every parked block is
# overwritten; a write after the free panics at the next `alloc` of its
# class, a freed node's link is a non-canonical address) and the cache-off
# leg, where every node is a `Box` of its own and really is freed, so the
# same read is a reported heap-use-after-free. The cache-on leg still checks
# the magazines, the chains they trade and the pool themselves, and
# LeakSanitizer checks both (every slab stays reachable through the pool's
# slab list).
#
# Covered: the `wfe-sync`, `wfe-reclaim`, `wfe-core` and `wfe-ds` unit
# suites, the block-cache suite (`--test cache_leak`), the conformance,
# property and resize-storm suites and the integration suite, once more
# with one test thread at a time (tests then do not preempt each other).
# The Natarajan-Mittal BST is covered too: its `seek` steps only through
# clean edges, so it no longer reads a node retired behind a marked one
# (`bst_under_hp` used to report a heap-use-after-free in `child_edge` on
# the first run).
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
    cargo +nightly test "${target[@]}" -p wfe-ds --lib
    cargo +nightly test "${target[@]}" --test cache_leak --test conformance_smoke \
        --test proptests --test resize_stress
    cargo +nightly test "${target[@]}" --test integration
    cargo +nightly test "${target[@]}" --test integration -- --test-threads 1
done
echo "== ASan clean: block cache ${modes[*]}" >&2
