(* Peak resident set size of this process, from the kernel's VmHWM. *)

(* [parse_kb status] is the VmHWM value, in kB, of a /proc/<pid>/status
   text, or [None] when the line is missing or malformed. *)
let parse_kb status =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.sub line 0 i = "VmHWM" -> (
        let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        match String.split_on_char ' ' rest |> List.filter (( <> ) "") with
        | [ kb; "kB" ] -> (
          match int_of_string_opt kb with Some v when v >= 0 -> Some v | _ -> None)
        | _ -> None)
      | _ -> None)
    (String.split_on_char '\n' status)

(* Peak RSS of the calling process in MiB.  Raises [Failure] when the
   kernel does not report it: the benchmark has no substitute. *)
let read_mb () =
  let text = In_channel.with_open_bin "/proc/self/status" In_channel.input_all in
  match parse_kb text with
  | Some kb -> Float.of_int kb /. 1024.0
  | None -> failwith "VmHWM missing from /proc/self/status"
