module Obs = Sgr_obs.Obs

exception Busy of string

type t = {
  socket_path : string;
  cache : Cache.t;
  log : string -> unit;
  stop : bool Atomic.t;
}

let create ~socket_path ~cache ~log = { socket_path; cache; log; stop = Atomic.make false }
let request_stop t = Atomic.set t.stop true

(* One poll interval: the latency bound on noticing [request_stop] when
   the loop is otherwise idle. With queued work the select timeout is 0,
   so the stop flag is re-checked between every two requests. *)
let poll_s = 0.2

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink_quiet path =
  match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error (_, _, _) -> ()

(* A second `sgr serve` must not silently steal a live server's socket:
   probe the path with a ping before unlinking it. A connect refusal
   means the file is a stale leftover (safe to remove); a listener that
   answers — or even one that accepts the connection but stays silent —
   means the path is in use. *)
let probe_existing t =
  if Sys.file_exists t.socket_path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect fd (Unix.ADDR_UNIX t.socket_path) with
      | () -> (
          let msg = "ping\n" in
          match
            (try ignore (Unix.write_substring fd msg 0 (String.length msg)) with
            | Unix.Unix_error _ -> ());
            Unix.select [ fd ] [] [] 1.0
          with
          | [], _, _ -> true (* accepted the connection but never answered: occupied *)
          | _ -> (
              let buf = Bytes.create 64 in
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> false (* listener hung up without a word: treat as stale *)
              | _ -> true (* any reply (an "ok pong") is a live server *)
              | exception Unix.Unix_error _ -> false)
          | exception Unix.Unix_error _ -> true)
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
      | exception Unix.Unix_error _ ->
          (* Not connectable as a socket (e.g. a regular file): the old
             behaviour — unlink and take the path — applies. *)
          false
    in
    close_quiet fd;
    if live then raise (Busy t.socket_path);
    t.log "removing stale socket file"
  end

(* ---------------- event loop ---------------- *)

let c_sessions = Obs.counter "serve.sessions"
let c_sessions_closed = Obs.counter "serve.sessions_closed"
let c_replies = Obs.counter "serve.replies"

let run t =
  probe_existing t;
  unlink_quiet t.socket_path;
  (* The socket is bound under a short temporary sibling name and renamed
     onto [socket_path] only after listen(2): clients wait for the path
     to appear, so it must never exist before connects succeed. *)
  let bound_path =
    Filename.concat (Filename.dirname t.socket_path) (Printf.sprintf ".sgr%d" (Unix.getpid ()))
  in
  unlink_quiet bound_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* The session table: fd order is accept order; [rr] rotates the
     compute step across sessions so one chatty pipeline cannot starve
     the others. *)
  let sessions = ref [] in
  let next_id = ref 0 in
  let rr = ref 0 in
  let chunk = Bytes.create 4096 in
  let close_session (fd, s) =
    close_quiet fd;
    Obs.incr c_sessions_closed;
    Atomic.decr Metrics.sessions_active;
    t.log (Printf.sprintf "client %d %s" (Session.id s) (Session.close_reason s))
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (fd, _) -> close_quiet fd) !sessions;
      Metrics.clear_session_stats ();
      close_quiet sock;
      unlink_quiet bound_path;
      unlink_quiet t.socket_path;
      t.log "socket removed; bye")
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX bound_path);
  Unix.listen sock 64;
  Unix.rename bound_path t.socket_path;
  Unix.set_nonblock sock;
  Metrics.set_session_stats (fun () ->
      List.map
        (fun (_, s) -> (Session.id s, Session.lines_in s, Session.replies_out s))
        !sessions);
  t.log (Printf.sprintf "listening on %s" t.socket_path);
  let accept_all () =
    let continue = ref true in
    while !continue do
      match Unix.accept sock with
      | fd, _ ->
          Unix.set_nonblock fd;
          incr next_id;
          let s = Session.create ~id:!next_id in
          sessions := !sessions @ [ (fd, s) ];
          Obs.incr c_sessions;
          Atomic.incr Metrics.sessions_active;
          t.log (Printf.sprintf "client %d connected" !next_id)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          continue := false
      | exception Unix.Unix_error (e, _, _) ->
          (* A failed accept (e.g. the peer vanished mid-handshake) must
             not take down the serving loop. *)
          t.log (Printf.sprintf "accept error: %s" (Unix.error_message e));
          continue := false
    done
  in
  let read_session (fd, s) =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Session.feed_eof s
    | n -> Session.feed s chunk n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
        (* ECONNRESET and friends: a disconnect, not a crash. *)
        Session.feed_eof s
  in
  let write_session (fd, s) =
    let out = Session.pending_out s in
    if String.length out > 0 then begin
      match Unix.write_substring fd out 0 (String.length out) with
      | n -> Session.wrote s n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) ->
          (* EPIPE/ECONNRESET from a vanished client. *)
          Session.abort s
    end
  in
  (* Execute at most one request per loop turn, rotating across the
     sessions that have work: replies stay ordered within a session
     (FIFO inbox) while long pipelines interleave fairly across
     sessions, and the stop flag is honoured between requests. *)
  let compute_one () =
    let arr = Array.of_list !sessions in
    let n = Array.length arr in
    let rec pick k =
      if k >= n then ()
      else
        let i = (!rr + k) mod n in
        let _, s = arr.(i) in
        if Session.has_work s then begin
          rr := i + 1;
          match Session.next_request s with
          | None -> ()
          | Some raw -> (
              match Engine.execute_raw t.cache raw with
              | None -> ()
              | Some reply ->
                  Session.push_reply s reply;
                  Obs.incr c_replies)
        end
        else pick (k + 1)
    in
    if n > 0 then pick 0
  in
  (* Sessions whose fd the kernel no longer recognises (select raised
     EBADF) are dropped so one broken descriptor cannot wedge the loop. *)
  let drop_unhealthy () =
    let healthy, broken =
      List.partition (fun (fd, _) -> match Unix.fstat fd with _ -> true | exception Unix.Unix_error _ -> false) !sessions
    in
    sessions := healthy;
    List.iter
      (fun ((_, s) as cs) ->
        Session.abort s;
        close_session cs)
      broken
  in
  let rec loop () =
    if Atomic.get t.stop then begin
      t.log "stop requested; draining";
      (* Final telemetry snapshot on graceful SIGINT/SIGTERM drain, one
         log line per exposition line (the frontend owns the channel).
         Rendered while the sessions are still registered, then the
         finalizer closes them. *)
      List.iter t.log (String.split_on_char '\n' (Metrics.render t.cache))
    end
    else begin
      let work_pending = List.exists (fun (_, s) -> Session.has_work s) !sessions in
      let timeout = if work_pending then 0.0 else poll_s in
      let read_fds =
        sock :: List.filter_map (fun (fd, s) -> if Session.wants_read s then Some fd else None) !sessions
      in
      let write_fds =
        List.filter_map
          (fun (fd, s) -> if String.length (Session.pending_out s) > 0 then Some fd else None)
          !sessions
      in
      (match Unix.select read_fds write_fds [] timeout with
      | readable, writable, _ ->
          if List.memq sock readable then accept_all ();
          List.iter
            (fun ((fd, _) as cs) -> if List.memq fd readable then read_session cs)
            !sessions;
          List.iter
            (fun ((fd, _) as cs) -> if List.memq fd writable then write_session cs)
            !sessions
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
          (* A per-session failure must never take down the other
             sessions: log, drop the broken descriptors, carry on. *)
          t.log (Printf.sprintf "select error: %s; dropping broken sessions" (Unix.error_message e));
          drop_unhealthy ());
      compute_one ();
      let finished, live = List.partition (fun (_, s) -> Session.finished s) !sessions in
      sessions := live;
      List.iter close_session finished;
      loop ()
    end
  in
  loop ()
