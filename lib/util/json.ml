type value = Int of int | Str of string | Bool of bool
type fields = (string * value) list

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* ------------------------------------------------------------------ *)
(* Member writers                                                      *)

let key b k =
  let n = Buffer.length b in
  if n > 0 && Buffer.nth b (n - 1) <> '{' then Buffer.add_char b ',';
  Buffer.add_char b '"';
  escape b k;
  Buffer.add_string b "\":"

let int b k v =
  key b k;
  Buffer.add_string b (string_of_int v)

let str b k v =
  key b k;
  Buffer.add_char b '"';
  escape b v;
  Buffer.add_char b '"'

let bool b k v =
  key b k;
  Buffer.add_string b (if v then "true" else "false")

let ints b k vs =
  key b k;
  Buffer.add_char b '[';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (string_of_int v))
    vs;
  Buffer.add_char b ']'

let to_string fields =
  let b = Buffer.create 256 in
  Buffer.add_char b '{';
  List.iter
    (fun (k, v) ->
      match v with Int i -> int b k i | Str s -> str b k s | Bool x -> bool b k x)
    fields;
  Buffer.add_char b '}';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let skip_ws () =
    while
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> true
      | _ -> false
    do
      advance ()
    done
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        let unescaped c =
          Buffer.add_char b c;
          advance ();
          go ()
        in
        match peek () with
        | Some '"' -> unescaped '"'
        | Some '\\' -> unescaped '\\'
        | Some 'n' -> unescaped '\n'
        | Some 'r' -> unescaped '\r'
        | Some 't' -> unescaped '\t'
        | Some '/' -> unescaped '/'
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
          | Some _ -> Buffer.add_char b '?'
          | None -> fail "bad \\u escape");
          pos := !pos + 4;
          go ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let parse_scalar () =
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('-' | '0' .. '9') -> (
      let start = !pos in
      while
        match peek () with
        | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
        | _ -> false
      do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> fail (Printf.sprintf "bad integer %S" tok))
    | _ -> fail "expected a scalar value"
  in
  try
    skip_ws ();
    expect '{';
    skip_ws ();
    let fields = ref [] in
    (match peek () with
    | Some '}' -> advance ()
    | _ ->
      let rec members () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        skip_ws ();
        let v = parse_scalar () in
        fields := (key, v) :: !fields;
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          members ()
        | Some '}' -> advance ()
        | _ -> fail "expected ',' or '}'"
      in
      members ());
    skip_ws ();
    if !pos <> n then fail "trailing input";
    Ok (List.rev !fields)
  with Bad m -> Error m

let parse_lines lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest when String.trim l = "" -> go acc rest
    | l :: rest -> (
      match parse l with
      | Ok fields -> go ((l, fields) :: acc) rest
      | Error m -> Error (Printf.sprintf "malformed line %S: %s" l m))
  in
  go [] lines

(* ------------------------------------------------------------------ *)
(* Field accessors                                                     *)

let get_int fields k = match List.assoc_opt k fields with Some (Int i) -> Some i | _ -> None
let get_str fields k = match List.assoc_opt k fields with Some (Str s) -> Some s | _ -> None
let get_bool fields k = match List.assoc_opt k fields with Some (Bool v) -> Some v | _ -> None
