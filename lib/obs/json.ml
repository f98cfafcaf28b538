type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ------------------------- printing ------------------------------- *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> Buffer.add_string buf (escape_string s)
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (escape_string k);
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v -> write buf v
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        write_pretty buf (indent + 2) v)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf ": ";
        write_pretty buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'

let to_string_pretty v =
  let buf = Buffer.create 4096 in
  write_pretty buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Closes the channel on every path: a failed write (full disk, say)
   surfaces from [output_string] or the final flush in [close_out]. *)
let write_file path v =
  match open_out path with
  | exception Sys_error msg -> Error msg
  | oc -> (
    match
      output_string oc (to_string_pretty v);
      close_out oc
    with
    | () -> Ok ()
    | exception Sys_error msg ->
      close_out_noerr oc;
      Error msg)

(* ------------------------- parsing -------------------------------- *)

type parser_state = { src : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

(* Decode a \uXXXX escape (and a following low surrogate, if any) to
   UTF-8 bytes. *)
let parse_unicode_escape st buf =
  let hex4 () =
    if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
    let s = String.sub st.src st.pos 4 in
    st.pos <- st.pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some v -> v
    | None -> fail st "bad \\u escape"
  in
  let cp = hex4 () in
  let cp =
    if cp >= 0xD800 && cp <= 0xDBFF then begin
      (* High surrogate: require the paired low surrogate. *)
      if
        st.pos + 2 <= String.length st.src
        && String.sub st.src st.pos 2 = "\\u"
      then begin
        st.pos <- st.pos + 2;
        let lo = hex4 () in
        if lo < 0xDC00 || lo > 0xDFFF then fail st "unpaired surrogate";
        0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
      end
      else fail st "unpaired surrogate"
    end
    else cp
  in
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
       | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
       | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
       | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
       | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
       | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
       | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
       | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
       | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
       | Some 'u' ->
         advance st;
         parse_unicode_escape st buf;
         go ()
       | _ -> fail st "bad escape")
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek st with
    | Some c when is_number_char c ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  let s = String.sub st.src start (st.pos - start) in
  match int_of_string_opt s with
  | Some n -> Int n
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail st "bad number")

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let rec fields acc =
        let f = field () in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields (f :: acc)
        | Some '}' ->
          advance st;
          List.rev (f :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let of_string src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing garbage";
  v

(* ------------------------- accessors ------------------------------ *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let index i = function
  | List items -> List.nth_opt items i
  | _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_list = function List items -> Some items | _ -> None
