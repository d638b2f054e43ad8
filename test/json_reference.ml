(* The char-by-char JSON reader that [Report_io.Json.parse] replaced,
   kept verbatim as the differential oracle: on every input within the
   depth bound the index-based reader must return the same value (floats
   compared by bits) and raise the same [Parse_error] text.  It shares
   the value type so results compare directly. *)

module Json = struct
  type t = Amb_report.Report_io.Json.t =
    | Null
    | Bool of bool
    | Number of float
    | String of string
    | List of t list
    | Object of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some x when x = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %c" c)
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance (); Buffer.contents b
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some ('"' | '\\' | '/') -> Buffer.add_char b s.[!pos]; advance ()
          | Some 'n' -> Buffer.add_char b '\n'; advance ()
          | Some 't' -> Buffer.add_char b '\t'; advance ()
          | Some 'r' -> Buffer.add_char b '\r'; advance ()
          | Some ('b' | 'f') -> advance ()
          | Some 'u' ->
            advance ();
            let start = !pos in
            for _ = 1 to 4 do (match peek () with Some _ -> advance () | None -> fail "bad \\u") done;
            (match int_of_string_opt ("0x" ^ String.sub s start 4) with
            | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
            | Some _ | None -> Buffer.add_char b '?')
          | _ -> fail "bad escape");
          go ()
        | Some c -> Buffer.add_char b c; advance (); go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let numchar c =
        (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c when numchar c -> true | _ -> false) do advance () done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Number f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "empty input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Object [])
        else
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((key, v) :: acc)
            | Some '}' -> advance (); Object (List.rev ((key, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function Object kvs -> List.assoc_opt key kvs | _ -> None
end
