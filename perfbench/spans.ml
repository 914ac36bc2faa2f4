(* Spans recorded by the benchmark around its own calls into each
   layer: name, start, end, parent and op id. Off by default, where
   [span] is one branch around the call; on in the traced run, which
   keeps every span in memory and writes them out when it ends. *)

type span = {
  name : string;
  op : int;
  parent : int;  (** Index of the enclosing span, [-1] at the root. *)
  start_ns : int64;
  mutable end_ns : int64;
}

let enabled = ref false
let op = ref 0
let all : span array ref = ref [||]
let count = ref 0
let open_ : int list ref = ref []

let push s =
  if !count = Array.length !all then begin
    let grown = Array.make (max 1024 (2 * !count)) s in
    Array.blit !all 0 grown 0 !count;
    all := grown
  end;
  !all.(!count) <- s;
  incr count

let new_op () =
  incr op;
  !op

(* A span timed by the caller, for operations that overlap (two
   requests in flight on two connections). *)
let record ~name ~op ~start_ns ~end_ns =
  if !enabled then push { name; op; parent = -1; start_ns; end_ns }

let span name f =
  if not !enabled then f ()
  else begin
    let id = !count in
    let parent = match !open_ with p :: _ -> p | [] -> -1 in
    push { name; op = !op; parent; start_ns = Host.now_ns (); end_ns = 0L };
    open_ := id :: !open_;
    Fun.protect
      ~finally:(fun () ->
        !all.(id).end_ns <- Host.now_ns ();
        open_ := List.tl !open_)
      f
  end

let recorded () = Array.sub !all 0 !count

let durations_ms name =
  Array.of_list
    (List.filter_map
       (fun s ->
         if String.equal s.name name then Some (Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e6)
         else None)
       (Array.to_list (recorded ())))

let write path =
  Out_channel.with_open_text path (fun oc ->
      Array.iteri
        (fun i s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %S, \"op\": %d, \"parent\": %d, \"start_ns\": %Ld, \"end_ns\": %Ld}\n"
            i s.name s.op s.parent s.start_ns s.end_ns)
        (recorded ()))
