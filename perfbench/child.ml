(* The `sgr serve` child process of the serve workloads, and the
   client side of its socket.

   The server runs in its own process: as a systhread of the benchmark
   it would share the client's runtime lock. Its files (socket,
   instance files) live in a private directory under the checkout,
   removed on every exit path; its stderr goes to a log file beside
   that directory. *)

let work_dir = ".perfbench"
let sgr_exe = "_build/default/bin/sgr.exe"

module Client = Sgr_serve.Client

type t = { pid : int; dir : string; socket : string; mutable conns : Client.t list }

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> remove_tree (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let private_dir =
  let k = ref 0 in
  fun () ->
    incr k;
    let d = Printf.sprintf "%s/serve-%d-%d" work_dir (Unix.getpid ()) !k in
    remove_tree d;
    mkdir_p d;
    d

let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

(* ---- client connections: [Sgr_serve.Client], failures as [Failed] ---- *)

let send c line = if not (Client.send c line) then fail "not a request: %S" line

let recv c = try Client.recv c with Client.Disconnected -> fail "server closed the connection"

let rpc c line =
  send c line;
  recv c

(* ---- the server process ---- *)

let live : t list ref = ref []

(* Logs this process has written: the first server of a run truncates. *)
let logs : string list ref = ref []

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* Stop: [quit] on every connection, then SIGTERM, then wait for the
   process; the private directory goes whatever happened. The server
   stays in [live] until it is reaped, so a signal that cuts this short
   leaves the at-exit hook to finish the job. *)
let stop t =
  List.iter
    (fun c ->
      (try ignore (rpc c "quit") with Failed _ | Unix.Unix_error _ -> ());
      Client.close c)
    t.conns;
  t.conns <- [];
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  remove_tree t.dir;
  live := List.filter (fun s -> s.pid <> t.pid) !live

let stop_all () = List.iter stop !live
let () = at_exit stop_all

(* Start [sgr serve --jobs 1] on a socket in a fresh private directory
   and return once a [ping] answers; no fixed sleep. [files] are written
   into the directory first; requests name them by [path t file]. *)
let start ~log ~files =
  if not (Sys.file_exists sgr_exe) then fail "%s is missing (build it first)" sgr_exe;
  let dir = private_dir () in
  List.iter (fun (name, text) -> write_file (Filename.concat dir name) text) files;
  let socket = Filename.concat dir "s" in
  let fresh = if List.mem log !logs then [] else [ Unix.O_TRUNC ] in
  logs := log :: !logs;
  let out = Unix.openfile log ([ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] @ fresh) 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close null)
      (fun () ->
        Unix.create_process sgr_exe
          [| sgr_exe; "serve"; "--jobs"; "1"; "--socket"; socket |]
          null out out)
  in
  let t = { pid; dir; socket; conns = [] } in
  live := t :: !live;
  let t0 = Host.now_ns () in
  let rec wait () =
    if exited pid then begin
      remove_tree dir;
      live := List.filter (fun s -> s.pid <> pid) !live;
      fail "sgr serve exited during start-up (see %s)" log
    end
    else if Host.ms_since t0 > 20_000. then fail "sgr serve did not answer a ping within 20 s"
    else
      match Client.connect socket with
      | c ->
          if String.equal (rpc c "ping") "ok pong" then t.conns <- [ c ]
          else begin
            Client.close c;
            fail "unexpected ping reply"
          end
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
          Unix.sleepf 0.001;
          wait ()
  in
  (try wait () with e -> stop t; raise e);
  t

let path t file = Filename.concat t.dir file

(* The ready connection, plus [n - 1] more. *)
let connections t n =
  let extra = List.init (n - 1) (fun _ -> Client.connect t.socket) in
  t.conns <- t.conns @ extra;
  Array.of_list t.conns

let peak_rss_mb t = Host.peak_rss_mb (string_of_int t.pid)

(* [memo_hits], [memo_misses] from a [stats] reply. *)
let memo_counts c =
  let reply = rpc c "stats" in
  let field k =
    List.find_map
      (fun w ->
        match String.split_on_char '=' w with
        | [ key; v ] when String.equal key k -> int_of_string_opt v
        | _ -> None)
      (String.split_on_char ' ' reply)
  in
  match (field "memo_hits", field "memo_misses") with
  | Some h, Some m -> (h, m)
  | _ -> fail "unexpected stats reply: %s" reply
