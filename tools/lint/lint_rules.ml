(* The project rules, as a Parsetree walk.

   Every rule is purely syntactic (no typing pass), so each one errs on
   the side of precision: it matches the concrete idioms this repo uses
   and documents its blind spots in docs/static-analysis.md. A rule
   fires as a [Lint_diag.t]; suppression is handled by the caller via
   [Lint_allow]. *)

open Parsetree

(* Where a file sits decides which rules apply to it. *)
type ctx = {
  in_lib : bool;  (* under lib/: purity, failure, global-state and unchecked-access rules *)
  numeric : bool;  (* lib/numerics, lib/links or lib/network: tolerance discipline *)
  hot : bool;  (* lib/graph or lib/network: no quadratic list idioms *)
  session : bool;  (* lib/serve session-layer modules: never block *)
}

let ctx_of_path path =
  let comps = String.split_on_char '/' path in
  let has c = List.mem c comps in
  let in_lib = has "lib" in
  {
    in_lib;
    numeric = in_lib && (has "numerics" || has "links" || has "network");
    hot = in_lib && (has "graph" || has "network");
    (* The event-loop state machines: these run on the server's single
       serving thread, so one blocking call stalls every session. *)
    session =
      (in_lib && has "serve")
      && List.mem (Filename.basename path) [ "session.ml"; "lineio.ml" ];
  }

let rules =
  [
    ( "mutable-global",
      "toplevel ref/Hashtbl/Buffer/mutable-record state in lib/ must be Atomic, \
       mutex-guarded, or Domain.DLS" );
    ( "float-equality",
      "float-literal =/<>/==/!= and bare polymorphic compare/min/max in numeric modules; \
       use Tolerance helpers or Float.*" );
    ( "obs-domain-discipline",
      "Obs.span/Obs.point/Hist.record must not run inside closures handed to \
       Pool.map/map_array (spans and points are sink-domain-only; a plain histogram is \
       single-domain — use Hist.observe)" );
    ("lib-purity", "no direct stdout/stderr output from lib/; print from bin/ or an Obs sink");
    ( "no-blocking-in-pool",
      "blocking calls (Unix.*, Thread.delay/join, Mutex.lock, channel I/O) must not be \
       reachable — directly or through the call graph (typed phase) — from closures \
       handed to Pool.map/map_array or from the serve session-layer modules \
       (session.ml, lineio.ml) driven by the event loop" );
    ("no-untyped-failure", "failwith / assert false in lib/ needs an explicit allow");
    ( "quadratic-list",
      "List.mem/List.assoc/List.nth/(@) in lib/graph and lib/network hot paths" );
    ( "lock-discipline",
      "typed phase: fields of a record that pairs a Mutex.t with mutable state must \
       only be touched while the mutex is held, and non-atomic mutable globals must \
       not be reachable from Pool closures" );
    ( "cancel-coverage",
      "typed phase: while loops, recursive cycles and loop-driving closures in solver \
       modules reachable from lib/serve dispatch must contain Sgr_obs.Cancel.check so \
       @MS deadlines can pre-empt them" );
    ( "unchecked-access",
      "Array/Bytes/String unsafe_get/unsafe_set in lib/, qualified or bare (under an \
       open), only inside an allow region whose comment proves every index in range" );
  ]

let known = List.map fst rules

(* [Longident.flatten] raises on functor applications; this one never does. *)
let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply (a, b) -> flatten a @ flatten b

let last_two path =
  match List.rev path with b :: a :: _ -> Some (a, b) | _ -> None

let ends_with path (m, f) =
  match last_two path with
  | Some (a, b) -> String.equal a m && String.equal b f
  | None -> false

let callee_path f =
  match f.pexp_desc with Pexp_ident { txt; _ } -> Some (flatten txt) | _ -> None

let is_float_lit e =
  match e.pexp_desc with Pexp_constant (Pconst_float _) -> true | _ -> false

(* ---------------- mutable-global ---------------- *)

(* Field names declared [mutable] anywhere in this file; a toplevel
   record literal mentioning one is shared mutable state. (Mutable
   fields of types declared elsewhere are a documented blind spot.) *)
let mutable_field_names str =
  let fields = Hashtbl.create 8 in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      type_declaration =
        (fun self td ->
          (match td.ptype_kind with
          | Ptype_record lds ->
              List.iter
                (fun ld ->
                  if ld.pld_mutable = Asttypes.Mutable then
                    Hashtbl.replace fields ld.pld_name.txt ())
                lds
          | _ -> ());
          default.type_declaration self td);
    }
  in
  iter.structure iter str;
  fields

let banned_creation path =
  match path with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | _ when ends_with path ("Hashtbl", "create") -> Some "Hashtbl.create"
  | _ when ends_with path ("Buffer", "create") -> Some "Buffer.create"
  | _ when ends_with path ("Queue", "create") -> Some "Queue.create"
  | _ when ends_with path ("Stack", "create") -> Some "Stack.create"
  | _ -> None

(* Scan a toplevel binding's RHS for state created *now* (not inside a
   function, which is per-call state). *)
let scan_mutable_global ~emit ~mutable_fields str =
  let rec scan e =
    match e.pexp_desc with
    | Pexp_apply (f, args) ->
        (match callee_path f with
        | Some p -> (
            match banned_creation p with
            | Some what ->
                emit e.pexp_loc
                  (Printf.sprintf
                     "toplevel %s creates shared mutable state; wrap it in Atomic/Mutex or \
                      Domain.DLS, or annotate why it is domain-safe"
                     what)
            | None -> List.iter (fun (_, a) -> scan a) args)
        | None -> List.iter (fun (_, a) -> scan a) args)
    | Pexp_record (fields, base) ->
        let mut =
          List.find_opt
            (fun (({ txt; _ } : Longident.t Asttypes.loc), _) ->
              match List.rev (flatten txt) with
              | name :: _ -> Hashtbl.mem mutable_fields name
              | [] -> false)
            fields
        in
        (match mut with
        | Some ({ txt; _ }, _) ->
            let name = String.concat "." (flatten txt) in
            emit e.pexp_loc
              (Printf.sprintf
                 "toplevel record literal has mutable field %s; shared mutable state needs \
                  Atomic/Mutex/Domain.DLS or an allow annotation"
                 name)
        | None -> ());
        List.iter (fun (_, fe) -> scan fe) fields;
        Option.iter scan base
    | Pexp_tuple es -> List.iter scan es
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> scan e
    | Pexp_let (_, vbs, body) ->
        List.iter (fun vb -> scan vb.pvb_expr) vbs;
        scan body
    | Pexp_sequence (a, b) ->
        scan a;
        scan b
    | Pexp_ifthenelse (c, t, e) ->
        scan c;
        scan t;
        Option.iter scan e
    | Pexp_match (s, cases) | Pexp_try (s, cases) ->
        scan s;
        List.iter (fun c -> scan c.pc_rhs) cases
    | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> scan e
    | _ -> ()  (* functions, lazy, constants: creation is deferred *)
  in
  let rec scan_items items =
    List.iter
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter (fun vb -> scan vb.pvb_expr) vbs
        | Pstr_module mb -> scan_module mb.pmb_expr
        | Pstr_recmodule mbs -> List.iter (fun mb -> scan_module mb.pmb_expr) mbs
        | Pstr_include { pincl_mod; _ } -> scan_module pincl_mod
        | _ -> ())
      items
  and scan_module me =
    match me.pmod_desc with
    | Pmod_structure s -> scan_items s
    | Pmod_constraint (me, _) -> scan_module me
    | _ -> ()
  in
  scan_items str

(* ---------------- shared expression rules ---------------- *)

(* Hist.record mutates an unsynchronized histogram: from a pool worker
   that is a data race (the per-domain Hist.observe is the safe spelling). *)
let is_obs_emit path =
  ends_with path ("Obs", "span")
  || ends_with path ("Obs", "point")
  || ends_with path ("Hist", "record")

(* First Obs.span/Obs.point reference syntactically inside [e], if any. *)
let obs_call_in e =
  let found = ref None in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } when is_obs_emit (flatten txt) ->
              if !found = None then found := Some ex.pexp_loc
          | _ -> ());
          default.expr self ex);
    }
  in
  iter.expr iter e;
  !found

(* A pool worker that parks in a syscall stalls every task queued behind
   it, and a pool-wide Thread.join can deadlock outright. Precise-name
   match: only the [Unix]/[Thread] entry points this repo could reach. *)
let blocking_unix =
  [
    "sleep"; "sleepf"; "select"; "accept"; "connect"; "read"; "write"; "single_write";
    "recv"; "send"; "wait"; "waitpid";
  ]

let blocking_call path =
  match last_two path with
  | Some ("Unix", f) when List.mem f blocking_unix -> Some ("Unix." ^ f)
  | Some ("Thread", (("delay" | "join") as f)) -> Some ("Thread." ^ f)
  | _ -> None

(* First blocking-call reference syntactically inside [e], if any. *)
let blocking_call_in e =
  let found = ref None in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match blocking_call (flatten txt) with
              | Some what -> if !found = None then found := Some (ex.pexp_loc, what)
              | None -> ())
          | _ -> ());
          default.expr self ex);
    }
  in
  iter.expr iter e;
  !found

(* Names let-bound (at any level) to a body that emits spans/points, so
   passing the name to Pool.map is caught too. One level only: a helper
   calling another tainted helper is a documented blind spot. (The
   blocking equivalent used to live here; the typed phase's fixed-point
   taint in [Lint_typed] replaced it and has no hop limit.) *)
let tainted_bindings str =
  let obs_tainted = Hashtbl.create 8 in
  let default = Ast_iterator.default_iterator in
  let iter =
    {
      default with
      value_binding =
        (fun self vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> (
              match obs_call_in vb.pvb_expr with
              | Some _ -> Hashtbl.replace obs_tainted txt ()
              | None -> ())
          | _ -> ());
          default.value_binding self vb);
    }
  in
  iter.structure iter str;
  obs_tainted

let print_idents =
  [
    "print_endline"; "print_string"; "print_newline"; "print_char"; "print_int";
    "print_float"; "print_bytes"; "prerr_endline"; "prerr_string"; "prerr_newline";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_bytes";
  ]

let is_print path =
  match path with
  | [ n ] | [ "Stdlib"; n ] -> List.mem n print_idents
  | _ ->
      ends_with path ("Printf", "printf")
      || ends_with path ("Printf", "eprintf")
      || ends_with path ("Format", "printf")
      || ends_with path ("Format", "eprintf")

let quadratic_list path =
  match path with
  | [ "@" ] -> Some "(@)"
  | _ when ends_with path ("List", "mem") -> Some "List.mem"
  | _ when ends_with path ("List", "memq") -> Some "List.memq"
  | _ when ends_with path ("List", "assoc") -> Some "List.assoc"
  | _ when ends_with path ("List", "assq") -> Some "List.assq"
  | _ when ends_with path ("List", "mem_assoc") -> Some "List.mem_assoc"
  | _ when ends_with path ("List", "nth") -> Some "List.nth"
  | _ when ends_with path ("List", "append") -> Some "List.append"
  | _ -> None

(* An element access that skips the bounds check: out of range, it
   reads or writes arbitrary memory instead of raising. A bare
   [unsafe_get]/[unsafe_set] counts too: no module under lib/ defines
   one, so it is the stdlib's, reached through [open Array] or a local
   open ([Array.(unsafe_get a i)]). *)
let unchecked_access path =
  match path with
  | [ ("unsafe_get" | "unsafe_set") ] -> true
  | _ -> (
      match last_two path with
      | Some (("Array" | "Bytes" | "String"), ("unsafe_get" | "unsafe_set")) -> true
      | _ -> false)

let collect ~path (str : structure) : Lint_diag.t list =
  let ctx = ctx_of_path path in
  let out = ref [] in
  let emit ~rule loc msg = out := Lint_diag.of_loc ~rule ~msg loc :: !out in
  if ctx.in_lib then begin
    let mutable_fields = mutable_field_names str in
    scan_mutable_global ~emit:(fun loc msg -> emit ~rule:"mutable-global" loc msg)
      ~mutable_fields str
  end;
  let obs_tainted = tainted_bindings str in
  let default = Ast_iterator.default_iterator in
  let expr self e =
    (match e.pexp_desc with
    | Pexp_apply (f, args) -> (
        match callee_path f with
        | Some p ->
            (match p with
            | [ ("=" | "<>" | "==" | "!=") ] | [ "Stdlib"; ("=" | "<>" | "==" | "!=") ]
              when List.exists (fun (_, a) -> is_float_lit a) args ->
                emit ~rule:"float-equality" e.pexp_loc
                  "exact comparison against a float literal; use Tolerance.approx / \
                   approx_le / approx_ge (or annotate an intentional exact test)"
            | _ -> ());
            if ctx.in_lib && (p = [ "failwith" ] || p = [ "Stdlib"; "failwith" ]) then
              emit ~rule:"no-untyped-failure" e.pexp_loc
                "failwith in lib/ raises an untyped Failure; use invalid_arg, a typed \
                 exception, or annotate the documented contract";
            if ends_with p ("Pool", "map") || ends_with p ("Pool", "map_array") then
              List.iter
                (fun (_, a) ->
                  (match obs_call_in a with
                  | Some loc ->
                      emit ~rule:"obs-domain-discipline" loc
                        "Obs.span/Obs.point/Hist.record inside a closure passed to Pool.map: \
                         worker domains drop events and race on plain histograms, so \
                         telemetry depends on the job count (use Hist.observe for \
                         histograms)"
                  | None -> ());
                  (match blocking_call_in a with
                  | Some (loc, what) ->
                      emit ~rule:"no-blocking-in-pool" loc
                        (Printf.sprintf
                           "%s blocks inside a closure passed to Pool.map: a parked worker \
                            domain stalls every task queued behind it"
                           what)
                  | None -> ());
                  match a.pexp_desc with
                  | Pexp_ident { txt = Longident.Lident n; _ } ->
                      if Hashtbl.mem obs_tainted n then
                        emit ~rule:"obs-domain-discipline" a.pexp_loc
                          (Printf.sprintf
                             "%s emits Obs spans/points or records a plain histogram and is \
                              passed to Pool.map: worker domains drop events and race on \
                              histograms, so telemetry depends on the job count"
                             n)
                  | _ -> ())
                args
        | None -> ())
    | Pexp_ident { txt; _ } ->
        let p = flatten txt in
        (if ctx.session then
           match blocking_call p with
           | Some what ->
               emit ~rule:"no-blocking-in-pool" e.pexp_loc
                 (Printf.sprintf
                    "%s blocks inside a session state-machine module: the server's event \
                     loop must never block (keep Session/Lineio pure; all I/O belongs to \
                     Server)"
                    what)
           | None -> ());
        if ctx.in_lib && unchecked_access p then
          emit ~rule:"unchecked-access" e.pexp_loc
            (Printf.sprintf
               "%s skips the bounds check; keep it in an allow region whose comment says \
                why each index is in range"
               (String.concat "." p));
        if ctx.in_lib && is_print p then
          emit ~rule:"lib-purity" e.pexp_loc
            (Printf.sprintf
               "%s writes to std channels from lib/; return data or report through the \
                Obs sink, and print from bin/"
               (String.concat "." p));
        (match p with
        | [ (("compare" | "min" | "max") as n) ] when ctx.numeric ->
            emit ~rule:"float-equality" e.pexp_loc
              (Printf.sprintf
                 "bare polymorphic %s in a numeric module; use Float.%s / Int.%s (or a \
                  tolerance helper) so the comparison semantics are explicit"
                 n n n)
        | _ -> ());
        (match quadratic_list p with
        | Some what when ctx.hot ->
            emit ~rule:"quadratic-list" e.pexp_loc
              (Printf.sprintf
                 "%s is O(n) per call in a hot-path module; use an array, a sorted \
                  structure, or a Hashtbl"
                 what)
        | _ -> ())
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      when ctx.in_lib ->
        emit ~rule:"no-untyped-failure" e.pexp_loc
          "assert false in lib/; make the invariant a typed error or annotate why the \
           branch is unreachable"
    | _ -> ());
    default.expr self e
  in
  let iter = { default with expr } in
  iter.structure iter str;
  !out
