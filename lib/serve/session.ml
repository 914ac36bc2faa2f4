(* Per-client session state machine for the concurrent server.

   Purely computational — no fds, no syscalls (sgr-lint enforces this):
   the event loop in [Server] owns the socket and feeds bytes in /
   drains bytes out. Requests pipeline: every complete line queues in
   the inbox, the loop pops one at a time in arrival order, and replies
   append to the out queue in that same order — so a client may have
   any number of requests in flight while replies stay ordered. *)

(* Requests are short — the longest is [load ID PATH] — so a pending
   line past 64 KiB is refused rather than buffered: without a cap one
   client streaming bytes with no newline grows the server without
   bound. *)
let max_request_line = 65_536

(* An inbox entry: a complete request line, or the refusal of an
   overlong one, which closes the session once the requests before it
   are answered. *)
type entry = Request of string | Too_long

type t = {
  id : int;
  mutable reader : Lineio.t;
  inbox : entry Queue.t;  (* FIFO, in arrival order *)
  out : Buffer.t;  (* reply bytes not yet accepted by the kernel *)
  mutable out_pos : int;  (* consumed prefix of [out] *)
  mutable eof : bool;  (* read side closed (EOF or read error) *)
  mutable quit : bool;  (* an "ok bye" reply was queued *)
  mutable aborted : bool;  (* write side failed: drop everything *)
  mutable refused : bool;  (* a line passed [max_request_line] *)
  mutable lines_in : int;
  mutable replies_out : int;
}

let create ~id =
  {
    id;
    reader = Lineio.create ();
    inbox = Queue.create ();
    out = Buffer.create 256;
    out_pos = 0;
    eof = false;
    quit = false;
    aborted = false;
    refused = false;
    lines_in = 0;
    replies_out = 0;
  }

let id t = t.id
let lines_in t = t.lines_in
let replies_out t = t.replies_out

let drain_lines t =
  let continue = ref true in
  while !continue do
    match Lineio.next t.reader with
    | Some line ->
        t.lines_in <- t.lines_in + 1;
        Queue.add (Request line) t.inbox
    | None -> continue := false
  done

(* After draining, the reader holds only the unterminated tail, so it
   never holds more than the cap plus one chunk. Past the cap the
   session stops reading and drops the tail. *)
let feed t chunk n =
  if not (t.eof || t.aborted) then begin
    Lineio.feed t.reader chunk 0 n;
    drain_lines t;
    if Lineio.pending_length t.reader > max_request_line then begin
      t.refused <- true;
      t.eof <- true;
      t.reader <- Lineio.create ~capacity:16 ();
      Queue.add Too_long t.inbox
    end
  end

let feed_eof t =
  if not t.eof then begin
    t.eof <- true;
    (* A trailing unterminated line still counts as a request. *)
    if Lineio.pending_length t.reader > 0 then begin
      t.lines_in <- t.lines_in + 1;
      Queue.add (Request (Lineio.take_rest t.reader)) t.inbox
    end
  end

(* After a quit the remaining pipelined requests are not executed: the
   protocol's contract is that nothing after [quit] runs. *)
let has_work t = (not t.quit) && (not t.aborted) && not (Queue.is_empty t.inbox)

let push_reply t reply =
  if not t.aborted then begin
    Buffer.add_string t.out reply;
    Buffer.add_char t.out '\n';
    t.replies_out <- t.replies_out + 1;
    if String.equal reply "ok bye" then t.quit <- true
  end

(* The refusal is answered here, in its turn, and ends the session like
   a quit. *)
let next_request t =
  if not (has_work t) then None
  else
    match Queue.take t.inbox with
    | Request line -> Some line
    | Too_long ->
        push_reply t "error parse: line too long";
        t.quit <- true;
        None

let pending_out t =
  if t.aborted then ""
  else Buffer.sub t.out t.out_pos (Buffer.length t.out - t.out_pos)

let wrote t n =
  t.out_pos <- t.out_pos + n;
  if t.out_pos >= Buffer.length t.out then begin
    Buffer.clear t.out;
    t.out_pos <- 0
  end

let abort t =
  t.aborted <- true;
  t.eof <- true;
  Queue.clear t.inbox;
  Buffer.clear t.out;
  t.out_pos <- 0

let wants_read t = (not t.eof) && (not t.quit) && not t.aborted

let drained t = Buffer.length t.out - t.out_pos = 0

let finished t =
  t.aborted || (drained t && (t.quit || (t.eof && Queue.is_empty t.inbox)))

(* Why the session ended, for the server log. *)
let close_reason t =
  if t.refused then "line too long" else if t.quit then "quit" else "disconnected"

let buffered t = Lineio.pending_length t.reader
