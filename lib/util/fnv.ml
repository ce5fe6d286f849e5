let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* The running hash lives in 8 bytes rather than an [int64 ref]: a ref
   captured by a per-byte closure boxes a fresh int64 on every byte
   (ocamlopt without flambda), while [Bytes.get/set_int64_ne] on a
   local loop variable compiles to unboxed arithmetic. *)
type t = Bytes.t

let reset h seed = Bytes.set_int64_ne h 0 seed

let create () =
  let h = Bytes.create 8 in
  reset h offset;
  h

let value h = Bytes.get_int64_ne h 0

let add_char h c =
  Bytes.set_int64_ne h 0
    (Int64.mul (Int64.logxor (Bytes.get_int64_ne h 0) (Int64.of_int (Char.code c))) prime)

let add_string h s =
  let acc = ref (Bytes.get_int64_ne h 0) in
  for i = 0 to String.length s - 1 do
    acc :=
      Int64.mul
        (Int64.logxor !acc (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  Bytes.set_int64_ne h 0 !acc

let digit h d = add_char h (String.unsafe_get "0123456789abcdef" d)

(* Decimal digits of [n <= 0], most significant first. Working on the
   negative side covers [min_int], whose magnitude has no positive int. *)
let rec add_neg_digits h n =
  if n <= -10 then add_neg_digits h (n / 10);
  digit h (-(n mod 10))

let add_int h n =
  if n < 0 then begin
    add_char h '-';
    add_neg_digits h n
  end
  else add_neg_digits h (-n)

(* Nibbles [i] down to 0 of [v], most significant first. *)
let add_nibbles h v i =
  for k = i downto 0 do
    digit h (Int64.to_int (Int64.shift_right_logical v (4 * k)) land 15)
  done

let add_hex h v =
  let top = ref 15 in
  while !top > 0 && Int64.equal (Int64.shift_right_logical v (4 * !top)) 0L do
    decr top
  done;
  add_nibbles h v !top

(* [Printf "%h"]: [-]0x<d>[.<frac>]p<sign><exp>, the 52-bit fraction in
   hex with trailing zero nibbles dropped; subnormals print a leading 0
   and exponent -1022; infinities and NaNs print [infinity] / [nan]
   after the sign bit's [-]. *)
let add_hex_float h x =
  let bits = Int64.bits_of_float x in
  if Int64.compare bits 0L < 0 then add_char h '-';
  let exp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.logand bits 0xfffffffffffffL in
  if exp = 0x7ff then add_string h (if Int64.equal frac 0L then "infinity" else "nan")
  else begin
    add_string h (if exp = 0 then "0x0" else "0x1");
    if not (Int64.equal frac 0L) then begin
      add_char h '.';
      let last = ref 0 in
      while
        Int64.equal (Int64.logand (Int64.shift_right_logical frac (4 * !last)) 15L) 0L
      do
        incr last
      done;
      add_nibbles h (Int64.shift_right_logical frac (4 * !last)) (12 - !last)
    end;
    add_char h 'p';
    let e = if exp = 0 then (if Int64.equal frac 0L then 0 else -1022) else exp - 1023 in
    if e >= 0 then add_char h '+';
    add_int h e
  end

let hash64 s =
  let h = create () in
  add_string h s;
  value h

let hash64_lines lines =
  let h = create () in
  List.iter
    (fun l ->
      add_string h l;
      add_char h '\n')
    lines;
  value h

let hash s = Int64.to_int (hash64 s) land max_int
let to_hex h = Printf.sprintf "%016Lx" h
