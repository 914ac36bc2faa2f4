(* Percentiles, the tail-percentile ladder, and the metric-name rule. *)

(* Percentile levels are per-mille integers so that ranks are exact:
   [0.999 *. 1000.] is not 999 in floating point. *)
type level = P50 | P90 | P99 | P99_9

let per_mille = function P50 -> 500 | P90 -> 900 | P99 -> 990 | P99_9 -> 999
let level_name = function P50 -> "p50" | P90 -> "p90" | P99 -> "p99" | P99_9 -> "p99.9"

(* Nearest rank: the 1-based rank of the smallest sample with at least
   the level's share of all [n] samples at or below it. *)
let rank ~n level = (n * per_mille level + 999) / 1000

let beyond ~n level = n - rank ~n level

(* The highest of p90/p99/p99.9 that leaves at least 10 samples above
   it; [None] when even p90 does not. Workloads fix their tail level
   from this at their nominal op count, so the level never floats with
   the sample count of one run. *)
let tail_level n = List.find_opt (fun l -> beyond ~n l >= 10) [ P99_9; P99; P90 ]

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* [a] must be sorted and non-empty. *)
let percentile a level = a.(rank ~n:(Array.length a) level - 1)

let median xs = percentile (sorted xs) P50

(* Metric names: 1-64 characters from [A-Za-z0-9_.-], starting with a
   letter or a digit. *)
let is_alnum = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64 && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s
