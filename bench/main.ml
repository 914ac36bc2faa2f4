(* Benchmark & reproduction harness.

   `dune exec bench/main.exe` runs, in order:
   1. the reproduction experiments E1-E24 (paper-vs-measured tables for
      every figure and quantitative claim; see DESIGN.md / EXPERIMENTS.md);
   2. the bechamel timing suite T1-T8 and T13 (one OLS time per row).

   `dune exec bench/main.exe -- --experiments` or `-- --timings` runs only
   one half. Exit status is nonzero if any reproduction check fails. The
   deterministic performance checks live in `dune runtest`; end-to-end
   wall clock is measured by perfbench/. *)

let () =
  let args = Array.to_list Sys.argv in
  let experiments = List.mem "--experiments" args || not (List.mem "--timings" args) in
  let timings = List.mem "--timings" args || not (List.mem "--experiments" args) in
  if experiments then Experiments.run_all ();
  let ok = if experiments then Report.summary () else true in
  if timings then Timings.run_all ();
  if not ok then exit 1
