(* Linux /proc readers and child-process plumbing. *)

(* /proc files report length 0, so read to end of file. *)
let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* VmHWM of a process in KiB: its peak resident set. *)
let vm_hwm_kb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = "VmHWM" ->
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          Scanf.sscanf (String.trim rest) "%d" (fun kb -> kb)
      | _ -> acc)
    0 (read_lines path)

(* Linux reports utime/stime in USER_HZ ticks, 100 per second on every
   mainstream architecture. *)
let user_hz = 100.

(* utime + stime of a process, in seconds (fields 14 and 15 of
   /proc/PID/stat, counted after the parenthesised command name). *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex s ')' in
  let fields =
    String.split_on_char ' '
      (String.trim (String.sub s (close + 1) (String.length s - close - 1)))
  in
  (* after ')' the first field is the state (field 3) *)
  let field n = float_of_string (List.nth fields (n - 3)) in
  (field 14 +. field 15) /. user_hz

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec waitpid_noeintr pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

(* Stop a child and reap it; safe to call on an already-dead child. *)
let terminate pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.002;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_noeintr pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()
