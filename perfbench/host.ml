(* The clock every workload times with, and the record of the host a
   run saw: a slow or contended host must be visible next to the
   numbers it slowed. *)

let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

let read_first_line path =
  match In_channel.with_open_text path In_channel.input_line with
  | Some l -> l
  | None | (exception Sys_error _) -> ""

let words l =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l))

(* Steal ticks across all CPUs: the 8th value of /proc/stat's "cpu" line. *)
let steal_ticks () =
  match words (read_first_line "/proc/stat") with
  | "cpu" :: fields when List.length fields >= 8 -> int_of_string_opt (List.nth fields 7)
  | _ -> None

let loadavg_1m () =
  match words (read_first_line "/proc/loadavg") with
  | w :: _ -> Option.value (float_of_string_opt w) ~default:nan
  | [] -> nan

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> nan
  | lines -> (
      match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
      | Some l -> (
          match words (String.sub l 6 (String.length l - 6)) with
          | kb :: _ -> Option.value (float_of_string_opt kb) ~default:nan /. 1024.
          | [] -> nan)
      | None -> nan)

(* Two fixed calibration kernels. Their times move with the host (CPU
   frequency, contention, memory bandwidth), never with this repo's
   code, so a run whose kernels read slow was run on a slow host. *)
let calib_compute_ms () =
  let t0 = now_ns () in
  let x = ref 1.0 in
  for i = 1 to 20_000_000 do
    x := (!x *. 1.000000001) +. (1.0 /. float_of_int i)
  done;
  ignore (Sys.opaque_identity !x);
  ms_since t0

let calib_alloc_ms () =
  let t0 = now_ns () in
  for k = 1 to 10 do
    ignore (Sys.opaque_identity (List.rev (List.init 100_000 (fun i -> (i, k)))))
  done;
  ms_since t0

type record = {
  steal_start : int option;
  load_start : float;
  compute_ms : float;
  alloc_ms : float;
}

let start () =
  let steal_start = steal_ticks () and load_start = loadavg_1m () in
  { steal_start; load_start; compute_ms = calib_compute_ms (); alloc_ms = calib_alloc_ms () }

(* One line, beside the result: nproc, jobs, steal delta over the run,
   load average at both ends, and the calibration kernels. *)
let finish r =
  let steal =
    match (r.steal_start, steal_ticks ()) with
    | Some a, Some b -> string_of_int (b - a)
    | _ -> "null"
  in
  Printf.sprintf
    "host {\"nproc\": %d, \"jobs\": 1, \"steal_ticks\": %s, \"loadavg_1m_start\": %.2f, \
     \"loadavg_1m_end\": %.2f, \"calib_compute_ms\": %.3f, \"calib_alloc_ms\": %.3f}"
    (Domain.recommended_domain_count ())
    steal r.load_start (loadavg_1m ()) r.compute_ms r.alloc_ms
