(* Shared helpers of the benchmark: clocks, order statistics, file and
   process utilities, and the result record every phase fills in. *)

(* monotonic nanosecond clock, in seconds: per-request latencies are
   tens of microseconds, below what gettimeofday resolves as a float *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* user + system CPU seconds of this process, all domains *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile, [p] in (0, 100] *)
let percentile p l =
  match l with
  | [] -> nan
  | _ ->
    let a = sorted_array l in
    let n = Array.length a in
    let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let median l =
  match l with
  | [] -> nan
  | _ ->
    let a = sorted_array l in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

let file_size path = (Unix.stat path).Unix.st_size

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* peak resident set (VmHWM) of a live process, in MB; 0 when unreadable *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      0.0
      (String.split_on_char '\n' text)

let self_peak_rss_mb () = peak_rss_mb "self"

(* (steal, total) jiffies of the host's aggregate cpu line, (0, 0) when
   unreadable: the time a virtual machine's cpus waited for the host *)
let cpu_jiffies () =
  match In_channel.with_open_text "/proc/stat" input_line with
  | line -> (
    match List.filter_map int_of_string_opt (String.split_on_char ' ' line) with
    | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
      (steal, user + nice + system + idle + iowait + irq + softirq + steal)
    | _ -> (0, 0))
  | exception _ -> (0, 0)

(* Restrict every thread of this process to [cpus] (a taskset list such
   as "0" or "0-1"); children inherit the mask.  False when taskset is
   missing or refuses. *)
let pin_self cpus =
  Sys.command
    (Printf.sprintf "taskset -a -p -c %s %d >/dev/null 2>&1" cpus (Unix.getpid ()))
  = 0

let log fmt = Printf.ksprintf (fun s -> prerr_endline ("nfbench: " ^ s)) fmt

(* What a run reports: operation counts, correctness, and named metrics
   (value, unit) in insertion order. *)
type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** failed correctness checks *)
  mutable metrics : (string * (float * string)) list;  (** reversed *)
}

let result () = { attempted = 0; failed = 0; errors = []; metrics = [] }

let metric r name unit_ value = r.metrics <- (name, (value, unit_)) :: r.metrics

let error r fmt = Printf.ksprintf (fun s -> r.errors <- s :: r.errors) fmt

(* record a check outcome; a check that fails makes the run incorrect *)
let check r what = function
  | Ok () -> ()
  | Error msg -> error r "%s: %s" what msg

(* one operation: attempted, and failed when [ok] is false *)
let op r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1
