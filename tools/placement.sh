#!/bin/sh
# Where four hot functions land in an OCaml executable: each one's
# address, and that address mod 64 (its offset within a 64-byte block),
# read from `nm -n`. A benchmark row can move with placement alone when
# a change elsewhere in the link order shifts these functions, so
# compare this output before reading a timing difference as work.
#
# Usage: tools/placement.sh EXE      (e.g. _build/default/perfbench/main.exe)
# Exits 1 when a function is missing from EXE's symbol table.
set -eu
exe=${1:?usage: tools/placement.sh EXE}
syms=$(nm -n "$exe")
status=0
show() {
  line=$(printf '%s\n' "$syms" | grep -E " [Tt] $2_[0-9]+\$" | head -n 1) || true
  if [ -z "$line" ]; then
    printf '%-26s not found\n' "$1"
    status=1
    return
  fi
  addr=${line%% *}
  printf '%-26s 0x%s  mod 64 = %2d\n' "$1" "$addr" $((0x$addr % 64))
}
show Dijkstra.run_dir 'camlSgr_graph__Dijkstra\.run_dir'
show Instance_file.iter_lines 'camlSgr_io__Instance_file\.iter_lines'
show Latency.Kernels.flows 'camlSgr_latency__Latency\.flows'
show Links.newton_level 'camlSgr_links__Links\.newton_level'
exit $status
