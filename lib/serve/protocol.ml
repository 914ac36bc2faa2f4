type request =
  | Load of { id : string; path : string }
  | Solve of { id : string; obj : [ `Nash | `Opt ] }
  | Assign of { id : string; obj : [ `Nash | `Opt ]; method_ : [ `Fw | `Msa ] }
  | Optop of { id : string }
  | Mop of { id : string }
  | Induced of { id : string; alpha : float }
  | Sweep_point of { id : string; alpha : float }
  | Sweep_range of { id : string; lo : float; hi : float; samples : int }
  | Stats
  | Metrics
  | Ping
  | Quit

type line = { deadline_ms : int option; request : request }

let words s =
  String.split_on_char ' ' s |> List.map String.trim |> List.filter (fun w -> w <> "")

(* [-0] parses to [+0]: memo keys print parameters with [%h], which
   tells the two zeros apart, and numerically equal requests must share
   a key. *)
let float_arg w = Option.map (fun x -> x +. 0.0) (float_of_string_opt w)

(* The largest [N] in [sweep ID LO HI N]: a 0.001 alpha grid, the
   bound the library and the CLI hold a sweep to. The single-threaded
   server answers a request in one reply line, so [N] bounds both its
   latency and its reply size. *)
let max_sweep_samples = Stackelberg.Alpha_sweep.max_samples

let parse_request = function
  | [ "load"; id; path ] -> Ok (Load { id; path })
  | [ "solve"; id; "nash" ] -> Ok (Solve { id; obj = `Nash })
  | [ "solve"; id; "opt" ] -> Ok (Solve { id; obj = `Opt })
  | [ "solve"; _; obj ] -> Error (Printf.sprintf "solve expects nash|opt, got %S" obj)
  | "assign" :: id :: rest -> (
      let obj_of = function
        | "nash" -> Some `Nash
        | "opt" -> Some `Opt
        | _ -> None
      in
      let method_of = function "fw" -> Some `Fw | "msa" -> Some `Msa | _ -> None in
      match rest with
      | [ o ] -> (
          match obj_of o with
          | Some obj -> Ok (Assign { id; obj; method_ = `Fw })
          | None -> Error (Printf.sprintf "assign expects nash|opt, got %S" o))
      | [ o; m ] -> (
          match (obj_of o, method_of m) with
          | Some obj, Some method_ -> Ok (Assign { id; obj; method_ })
          | None, _ -> Error (Printf.sprintf "assign expects nash|opt, got %S" o)
          | _, None -> Error (Printf.sprintf "assign expects fw|msa, got %S" m))
      | _ -> Error "assign expects 'assign ID (nash|opt) [fw|msa]'")
  | [ "optop"; id ] -> Ok (Optop { id })
  | [ "mop"; id ] -> Ok (Mop { id })
  | [ "induced"; id; a ] -> (
      match float_arg a with
      | Some alpha when 0.0 <= alpha && alpha <= 1.0 -> Ok (Induced { id; alpha })
      | _ -> Error (Printf.sprintf "induced expects an alpha in [0, 1], got %S" a))
  | [ "sweep"; id; a ] -> (
      match float_arg a with
      | Some alpha when 0.0 <= alpha && alpha <= 1.0 -> Ok (Sweep_point { id; alpha })
      | _ -> Error (Printf.sprintf "sweep expects an alpha in [0, 1], got %S" a))
  | [ "sweep"; id; lo; hi; n ] -> (
      match (float_arg lo, float_arg hi, int_of_string_opt n) with
      | Some lo, Some hi, Some samples
        when 0.0 <= lo && lo <= hi && hi <= 1.0 && 2 <= samples && samples <= max_sweep_samples ->
          Ok (Sweep_range { id; lo; hi; samples })
      | _ ->
          Error
            (Printf.sprintf
               "sweep range expects 'sweep ID LO HI N' with 0 <= LO <= HI <= 1 and 2 <= N <= %d"
               max_sweep_samples))
  | [ "stats" ] -> Ok Stats
  | [ "metrics" ] -> Ok Metrics
  | [ "ping" ] -> Ok Ping
  | [ "quit" ] -> Ok Quit
  | w :: _ -> Error (Printf.sprintf "unknown or malformed request %S" w)
  | [] -> Error "empty request"

let parse_line raw =
  let trimmed = String.trim raw in
  if trimmed = "" || trimmed.[0] = '#' then Ok None
  else
    let deadline, rest =
      if trimmed.[0] = '@' then
        match String.index_opt trimmed ' ' with
        | Some i -> (
            let d = String.sub trimmed 1 (i - 1) in
            match int_of_string_opt d with
            | Some ms when ms >= 0 ->
                (Ok (Some ms), String.sub trimmed i (String.length trimmed - i))
            | _ -> (Error (Printf.sprintf "bad deadline %S (expected @MILLISECONDS)" d), "")
          )
        | None -> (Error "a deadline prefix needs a request after it", "")
      else (Ok None, trimmed)
    in
    match deadline with
    | Error m -> Error m
    | Ok deadline_ms -> (
        match parse_request (words rest) with
        | Ok request -> Ok (Some { deadline_ms; request })
        | Error m -> Error m)

let instance_id = function
  | Load { id; _ } | Solve { id; _ } | Assign { id; _ } | Optop { id } | Mop { id }
  | Induced { id; _ } | Sweep_point { id; _ } | Sweep_range { id; _ } ->
      Some id
  | Stats | Metrics | Ping | Quit -> None

let request_kind = function
  | Load _ -> "load"
  | Solve _ -> "solve"
  | Assign _ -> "assign"
  | Optop _ -> "optop"
  | Mop _ -> "mop"
  | Induced _ -> "induced"
  | Sweep_point _ | Sweep_range _ -> "sweep"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Ping -> "ping"
  | Quit -> "quit"

let float_str = Printf.sprintf "%.9g"

(* Memo keys embed every parameter the reply depends on, and nothing
   else: each solver's engine follows from the instance, so the request
   alone determines the reply. Parameters are canonical ([%h]) so
   numerically equal requests share a key. *)
let memo_key req =
  let key fmt = Printf.ksprintf Option.some fmt in
  match req with
  | Load _ | Stats | Metrics | Ping | Quit -> None
  | Solve { obj = `Nash; _ } -> key "solve|nash"
  | Solve { obj = `Opt; _ } -> key "solve|opt"
  | Assign { obj; method_; _ } ->
      key "assign|%s|%s"
        (match obj with `Nash -> "nash" | `Opt -> "opt")
        (match method_ with `Fw -> "fw" | `Msa -> "msa")
  | Optop _ -> key "optop"
  | Mop _ -> key "mop"
  | Induced { alpha; _ } -> key "induced|%h" alpha
  | Sweep_point { alpha; _ } -> key "sweep|%h" alpha
  | Sweep_range { lo; hi; samples; _ } -> key "sweep|%h|%h|%d" lo hi samples

let error_reply cls msg =
  let cls =
    match cls with `Parse -> "parse" | `Solve -> "solve" | `Timeout -> "timeout" | `Io -> "io"
  in
  let flat = String.map (function '\n' | '\r' -> ' ' | c -> c) msg in
  Printf.sprintf "error %s: %s" cls flat
