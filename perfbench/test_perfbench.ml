(* Unit tests of the benchmark's own machinery. *)

open Perfbench

let ladder () =
  let check n expected =
    Alcotest.(check (option string))
      (Printf.sprintf "tail level at n=%d" n)
      expected
      (Option.map Stats.level_name (Stats.tail_level n))
  in
  check 14 None;
  check 99 None;
  check 100 (Some "p90");
  check 999 (Some "p90");
  check 1000 (Some "p99");
  check 9_999 (Some "p99");
  check 10_000 (Some "p99.9");
  check 500_000 (Some "p99.9")

let nearest_rank () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let at l = Stats.percentile a l in
  Alcotest.(check (float 0.0)) "p50" 500.0 (at Stats.P50);
  Alcotest.(check (float 0.0)) "p90" 900.0 (at Stats.P90);
  Alcotest.(check (float 0.0)) "p99" 990.0 (at Stats.P99);
  Alcotest.(check (float 0.0)) "p99.9" 999.0 (at Stats.P99_9);
  Alcotest.(check int) "10 samples beyond p99 of 1000" 10 (Stats.beyond ~n:1000 Stats.P99);
  Alcotest.(check (float 0.0)) "median of one" 7.0 (Stats.median [| 7.0 |]);
  Alcotest.(check (float 0.0)) "median, unsorted input" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |])

(* Each workload's fixed tail level is the ladder's choice at its
   nominal op count in a run of BENCHMARK.json's 30 s; city-assign runs
   too few ops for any level and uses p90. *)
let workload_tails () =
  List.iter
    (fun (name, ops_per_s, tail) ->
      let ladder = Stats.tail_level (int_of_float (ops_per_s *. 30.0)) in
      Alcotest.(check string) name
        (Stats.level_name (Option.value ladder ~default:Stats.P90))
        (Stats.level_name tail))
    [
      (City_assign.name, City_assign.ops_per_s, City_assign.tail);
      (Serve_hit.name, Serve_hit.ops_per_s, Serve_hit.tail);
      (Serve_induced.name, Serve_induced.ops_per_s, Serve_induced.tail);
      (Links_sweep.name, Links_sweep.ops_per_s, Links_sweep.tail);
    ]

let names () =
  List.iter
    (fun (name, _) -> Alcotest.(check bool) name true (Stats.valid_name name))
    (Report.end_to_end @ Report.per_layer);
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Stats.valid_name bad))
    [ ""; "_lead"; ".lead"; "has space"; "slash/no"; "colon:no"; String.make 65 'a' ];
  Alcotest.(check bool) "64 characters" true (Stats.valid_name (String.make 64 'a'));
  let all = List.map fst (Report.end_to_end @ Report.per_layer) in
  Alcotest.(check int) "names are unique" (List.length all)
    (List.length (List.sort_uniq String.compare all))

(* The first index at or after [i] where [pat] occurs in [text]. *)
let rec find text pat i =
  if i + String.length pat > String.length text then None
  else if String.sub text i (String.length pat) = pat then Some i
  else find text pat (i + 1)

(* The quoted value after each ["key":] in [text], in order. *)
let values ~key text =
  let pat = Printf.sprintf "\"%s\":" key in
  let rec go from acc =
    match find text pat from with
    | None -> List.rev acc
    | Some i ->
        let q1 = String.index_from text (i + String.length pat) '"' in
        let q2 = String.index_from text (q1 + 1) '"' in
        go (q2 + 1) (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
  in
  go 0 []

(* The metrics the runner prints are the ones BENCHMARK.json lists, with
   the same units. *)
let catalogue () =
  let json = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let at key = Option.get (find json (Printf.sprintf "\"%s\":" key) 0) in
  let e2e = at "end_to_end" and layer = at "per_layer" in
  let listed a b =
    let s = String.sub json a (b - a) in
    List.sort compare (List.combine (values ~key:"name" s) (values ~key:"unit" s))
  in
  let check what expected got =
    Alcotest.(check (list (pair string string))) what (List.sort compare expected) got
  in
  check "end_to_end" Report.end_to_end (listed e2e layer);
  check "per_layer" Report.per_layer (listed layer (String.length json))

let determinism () =
  let same what a b = Alcotest.(check bool) what true (a = b) in
  let differ what a b = Alcotest.(check bool) what false (a = b) in
  same "city text" (Inputs.city_text ~seed:3) (Inputs.city_text ~seed:3);
  differ "city text across seeds" (Inputs.city_text ~seed:3) (Inputs.city_text ~seed:4);
  same "links text" (Inputs.links_text ~seed:5) (Inputs.links_text ~seed:5);
  differ "links text across seeds" (Inputs.links_text ~seed:5) (Inputs.links_text ~seed:6);
  same "alphas" (Inputs.alphas ~seed:7 50) (Inputs.alphas ~seed:7 50);
  differ "alphas across seeds" (Inputs.alphas ~seed:7 50) (Inputs.alphas ~seed:8 50);
  same "hit sequence" (Inputs.hit_sequence ~seed:9 100) (Inputs.hit_sequence ~seed:9 100);
  differ "hit sequence across seeds" (Inputs.hit_sequence ~seed:9 100) (Inputs.hit_sequence ~seed:10 100);
  same "hit instances" (Inputs.hit_instances ~seed:2) (Inputs.hit_instances ~seed:2);
  let a = Inputs.alphas ~seed:1 5000 in
  Alcotest.(check int) "alphas never repeat" 5000
    (List.length (List.sort_uniq Float.compare (Array.to_list a)));
  Alcotest.(check bool) "alphas in [0, 1)" true (Array.for_all (fun x -> x >= 0.0 && x < 1.0) a);
  (* Relabelling moves lines, it never changes the multiset of lines. *)
  let sorted_lines t = List.sort String.compare (String.split_on_char '\n' t) in
  same "relabel keeps the lines" (sorted_lines (Inputs.city_text ~seed:1))
    (sorted_lines (Inputs.city_text ~seed:2));
  (* Each pass of the hit sequence sends every mix line once. *)
  let m = Array.length Inputs.hit_mix in
  let pass = Array.sub (Inputs.hit_sequence ~seed:4 (3 * m)) m m in
  same "a pass is a permutation of the mix"
    (List.sort String.compare (Array.to_list Inputs.hit_mix))
    (List.sort String.compare (Array.to_list pass))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile ladder" `Quick ladder;
          Alcotest.test_case "nearest rank" `Quick nearest_rank;
          Alcotest.test_case "workload tail levels" `Quick workload_tails;
        ] );
      ( "names",
        [
          Alcotest.test_case "metric-name charset" `Quick names;
          Alcotest.test_case "metrics match BENCHMARK.json" `Quick catalogue;
        ] );
      ("inputs", [ Alcotest.test_case "seed determinism" `Quick determinism ]);
    ]
