exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------ lexer ------------------------------ *)

type token =
  | TId of string
  | TLit of Ast.lit
  | TInt of int
  | TSym of string
  | TEof

let is_id_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'

let is_id_char c = is_id_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let is_hex c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

(* Value digits of a sized literal, parsed through Int64 so a 16-digit
   hex two's-complement pattern (how the emitter writes negative
   immediates) wraps back into OCaml's int exactly. *)
let lit_value ~base ~width digits =
  if digits = "" then fail "empty literal value";
  String.iter
    (fun c ->
      match c with
      | 'x' | 'X' | 'z' | 'Z' | '?' -> fail "x/z literal digits unsupported"
      | '_' -> fail "underscores in literals unsupported"
      | _ -> ())
    digits;
  let v =
    try
      match base with
      | 'd' -> Int64.of_string digits
      | 'h' -> Int64.of_string ("0x" ^ digits)
      | 'b' -> Int64.of_string ("0b" ^ digits)
      | _ -> fail "unknown literal base '%c'" base
    with Failure _ -> fail "bad literal digits %S" digits
  in
  (* A sized literal must fit its width: [3'd8] silently truncates in
     Verilog, which is exactly how an undersized state register aliases
     S_IDLE with state 0 — reject it instead. *)
  if width < 64 then begin
    let limit = Int64.shift_left 1L width in
    if Int64.unsigned_compare v limit >= 0 then
      fail "literal %d'%c%s overflows its width" width base digits
  end;
  Int64.to_int v

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let pos = ref 0 in
  let peek_ahead k = if !pos + k < n then Some src.[!pos + k] else None in
  while !pos < n do
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr pos
    else if c = '/' && peek_ahead 1 = Some '/' then begin
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if is_digit c then begin
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        incr pos
      done;
      let num = String.sub src start (!pos - start) in
      if !pos < n && src.[!pos] = '\'' then begin
        incr pos;
        let signed =
          if !pos < n && (src.[!pos] = 's' || src.[!pos] = 'S') then begin
            incr pos;
            true
          end
          else false
        in
        if !pos >= n then fail "truncated literal";
        let base = Char.lowercase_ascii src.[!pos] in
        incr pos;
        let vstart = !pos in
        while
          !pos < n
          && (is_hex src.[!pos] || src.[!pos] = '_' || src.[!pos] = 'x'
             || src.[!pos] = 'z' || src.[!pos] = '?')
        do
          incr pos
        done;
        let digits = String.sub src vstart (!pos - vstart) in
        let width = int_of_string num in
        if width < 1 || width > 64 then
          fail "unsupported literal width %d" width;
        toks :=
          TLit { Ast.width; value = lit_value ~base ~width digits; signed }
          :: !toks
      end
      else toks := TInt (int_of_string num) :: !toks
    end
    else if is_id_start c then begin
      let start = !pos in
      while !pos < n && is_id_char src.[!pos] do
        incr pos
      done;
      toks := TId (String.sub src start (!pos - start)) :: !toks
    end
    else begin
      let sym2 () =
        if !pos + 1 < n then Some (String.sub src !pos 2) else None
      in
      let sym3 () =
        if !pos + 2 < n then Some (String.sub src !pos 3) else None
      in
      match sym3 () with
      | Some ">>>" ->
        toks := TSym ">>>" :: !toks;
        pos := !pos + 3
      | _ -> (
        match sym2 () with
        | Some (("<<" | ">>" | "<=" | ">=" | "==" | "!=" | "&&" | "||") as s)
          ->
          toks := TSym s :: !toks;
          pos := !pos + 2
        | _ ->
          (match c with
           | '(' | ')' | '{' | '}' | '[' | ']' | ':' | ';' | ',' | '?' | '<'
           | '>' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '~' | '!'
           | '=' | '@' | '.' ->
             toks := TSym (String.make 1 c) :: !toks
           | _ -> fail "unexpected character %C" c);
          incr pos)
    end
  done;
  Array.of_list (List.rev (TEof :: !toks))

(* ----------------------------- parser ------------------------------ *)

type stream = { toks : token array; mutable at : int }

let tok_to_string = function
  | TId s -> Printf.sprintf "identifier %S" s
  | TLit l -> Printf.sprintf "literal %d'd%d" l.Ast.width l.Ast.value
  | TInt n -> Printf.sprintf "integer %d" n
  | TSym s -> Printf.sprintf "%S" s
  | TEof -> "end of input"

let peek s = s.toks.(s.at)

let next s =
  let t = s.toks.(s.at) in
  if t <> TEof then s.at <- s.at + 1;
  t

let expect_sym s sym =
  match next s with
  | TSym x when x = sym -> ()
  | t -> fail "expected %S, found %s" sym (tok_to_string t)

let expect_kw s kw =
  match next s with
  | TId x when x = kw -> ()
  | t -> fail "expected %S, found %s" kw (tok_to_string t)

let expect_id s =
  match next s with
  | TId x -> x
  | t -> fail "expected an identifier, found %s" (tok_to_string t)

let eat_sym s sym =
  match peek s with
  | TSym x when x = sym ->
    s.at <- s.at + 1;
    true
  | _ -> false

(* [msb:lsb] — optional on port and reg declarations. *)
let parse_range_opt s =
  if eat_sym s "[" then begin
    let msb = match next s with TInt n -> n | t -> fail "bad range msb: %s" (tok_to_string t) in
    expect_sym s ":";
    let lsb = match next s with TInt n -> n | t -> fail "bad range lsb: %s" (tok_to_string t) in
    expect_sym s "]";
    msb - lsb + 1
  end
  else 1

(* -------------------------- expressions ---------------------------- *)

(* Binary operators by Verilog precedence, loosest first. *)
let binop_levels =
  [|
    [ "||" ];
    [ "&&" ];
    [ "|" ];
    [ "^" ];
    [ "&" ];
    [ "=="; "!=" ];
    [ "<"; "<="; ">"; ">=" ];
    [ "<<"; ">>"; ">>>" ];
    [ "+"; "-" ];
    [ "*"; "/"; "%" ];
  |]

let rec parse_expr s = parse_ternary s

and parse_ternary s =
  let c = parse_binary s 0 in
  if eat_sym s "?" then begin
    let t = parse_ternary s in
    expect_sym s ":";
    let f = parse_ternary s in
    Ast.Ternary (c, t, f)
  end
  else c

and parse_binary s level =
  if level >= Array.length binop_levels then parse_unary s
  else begin
    let ops = binop_levels.(level) in
    let lhs = ref (parse_binary s (level + 1)) in
    let continue = ref true in
    while !continue do
      match peek s with
      | TSym op when List.mem op ops ->
        s.at <- s.at + 1;
        let rhs = parse_binary s (level + 1) in
        lhs := Ast.Binop (op, !lhs, rhs)
      | _ -> continue := false
    done;
    !lhs
  end

and parse_unary s =
  match peek s with
  | TSym "-" ->
    s.at <- s.at + 1;
    (* [-64'sd5] is a unary minus applied to a *self-determined* sized
       literal — inside a concatenation (or any self-determined
       context) it no longer means the negative number.  The emitter
       writes negative immediates as two's-complement hex literals;
       anything else is a bug worth rejecting. *)
    (match peek s with
     | TLit _ -> fail "unary minus on a sized literal (emit a two's-complement literal instead)"
     | _ -> Ast.Unop ("-", parse_unary s))
  | TSym "~" ->
    s.at <- s.at + 1;
    Ast.Unop ("~", parse_unary s)
  | TSym "!" ->
    s.at <- s.at + 1;
    Ast.Unop ("!", parse_unary s)
  | _ -> parse_primary s

and parse_primary s =
  match next s with
  | TLit l -> Ast.Lit l
  (* Unsized decimal literals (the [!= 0] in emitted branch conditions)
     are signed 32-bit in Verilog. *)
  | TInt n -> Ast.Lit { Ast.width = 32; value = n; signed = true }
  | TId "$signed" ->
    expect_sym s "(";
    let e = parse_expr s in
    expect_sym s ")";
    Ast.Signed e
  | TId name -> Ast.Var name
  | TSym "(" ->
    let e = parse_expr s in
    expect_sym s ")";
    e
  | TSym "{" ->
    let rec parts acc =
      let e = parse_expr s in
      if eat_sym s "," then parts (e :: acc)
      else begin
        expect_sym s "}";
        List.rev (e :: acc)
      end
    in
    let ps = parts [] in
    if List.length ps < 2 then fail "concatenation needs two parts";
    Ast.Concat ps
  | t -> fail "expected an expression, found %s" (tok_to_string t)

(* -------------------------- statements ----------------------------- *)

let rec parse_stmt s =
  match next s with
  | TId "begin" ->
    let rec loop acc =
      match peek s with
      | TId "end" ->
        s.at <- s.at + 1;
        List.rev acc
      | _ -> loop (List.rev_append (parse_stmt s) acc)
    in
    loop []
  | TId "if" ->
    expect_sym s "(";
    let cond = parse_expr s in
    expect_sym s ")";
    let body = parse_stmt s in
    (match peek s with
     | TId "else" -> fail "else branches unsupported"
     | _ -> ());
    [ Ast.If (cond, body) ]
  | TId name ->
    expect_sym s "<=";
    let e = parse_expr s in
    expect_sym s ";";
    [ Ast.Assign (name, e) ]
  | t -> fail "expected a statement, found %s" (tok_to_string t)

let parse_case_key s =
  match next s with
  | TLit l -> Ast.Knum l.Ast.value
  | TId "default" -> Ast.Kdefault
  | TId name -> Ast.Kid name
  | t -> fail "expected a case label, found %s" (tok_to_string t)

(* ------------------------- module items ---------------------------- *)

let parse_ports s =
  expect_sym s "(";
  let rec loop acc =
    let dir =
      match next s with
      | TId "input" -> Ast.Input
      | TId "output" -> Ast.Output
      | t -> fail "expected input/output, found %s" (tok_to_string t)
    in
    let is_reg =
      match next s with
      | TId "wire" -> false
      | TId "reg" -> true
      | t -> fail "expected wire/reg, found %s" (tok_to_string t)
    in
    let width = parse_range_opt s in
    let pname = expect_id s in
    let acc = { Ast.dir; is_reg; width; pname } :: acc in
    if eat_sym s "," then loop acc
    else begin
      expect_sym s ")";
      expect_sym s ";";
      List.rev acc
    end
  in
  loop []

let parse_always s =
  expect_sym s "@";
  expect_sym s "(";
  expect_kw s "posedge";
  let _clk = expect_id s in
  expect_sym s ")";
  expect_kw s "begin";
  expect_kw s "if";
  expect_sym s "(";
  (match parse_expr s with
   | Ast.Var "rst" -> ()
   | _ -> fail "always block must reset on (rst)");
  expect_sym s ")";
  let reset = parse_stmt s in
  expect_kw s "else";
  expect_kw s "begin";
  expect_kw s "case";
  expect_sym s "(";
  (match parse_expr s with
   | Ast.Var "state" -> ()
   | _ -> fail "case must dispatch on (state)");
  expect_sym s ")";
  let rec arms acc =
    match peek s with
    | TId "endcase" ->
      s.at <- s.at + 1;
      List.rev acc
    | _ ->
      let key = parse_case_key s in
      expect_sym s ":";
      let body = parse_stmt s in
      arms ((key, body) :: acc)
  in
  let arms = arms [] in
  expect_kw s "end";
  expect_kw s "end";
  (reset, arms)

let parse_module src =
  let s = { toks = tokenize src; at = 0 } in
  expect_kw s "module";
  let mname = expect_id s in
  let ports = parse_ports s in
  let params = ref [] in
  let regs = ref [] in
  let body = ref None in
  let rec items () =
    match next s with
    | TId "endmodule" -> ()
    | TId "localparam" ->
      let name = expect_id s in
      expect_sym s "=";
      (match next s with
       | TLit l -> params := (name, l) :: !params
       | t -> fail "localparam needs a sized literal, found %s" (tok_to_string t));
      expect_sym s ";";
      items ()
    | TId "reg" ->
      let width = parse_range_opt s in
      let name = expect_id s in
      expect_sym s ";";
      regs := (name, width) :: !regs;
      items ()
    | TId "always" ->
      if !body <> None then fail "more than one always block";
      body := Some (parse_always s);
      items ()
    | t -> fail "unexpected %s in module body" (tok_to_string t)
  in
  items ();
  (match peek s with
   | TEof -> ()
   | t -> fail "trailing %s after endmodule" (tok_to_string t));
  let reset, arms =
    match !body with
    | Some b -> b
    | None -> fail "module has no always block"
  in
  {
    Ast.mname;
    ports;
    params = List.rev !params;
    regs = List.rev !regs;
    reset;
    arms;
  }

(* One emitted text compiles to one program; the flow memoizes
   [hw_thread]s process-wide, so the same verilog string is executed
   many times — cache the compiled program (not the AST, which only
   compiling needs) under the same kind of lock discipline. *)
let memo : (string, Eval.program) Hashtbl.t = Hashtbl.create 16

let memo_mutex = Mutex.create ()

let parse_memo src =
  Mutex.lock memo_mutex;
  let hit = Hashtbl.find_opt memo src in
  Mutex.unlock memo_mutex;
  match hit with
  | Some p -> p
  | None ->
    let p = Eval.compile (parse_module src) in
    Mutex.lock memo_mutex;
    let p =
      match Hashtbl.find_opt memo src with
      | Some q -> q
      | None ->
        Hashtbl.add memo src p;
        p
    in
    Mutex.unlock memo_mutex;
    p
