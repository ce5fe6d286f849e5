(* Reference encoders and hashes: the Printf/Buffer formulations the
   library's streaming hashers replaced. The library feeds the same
   bytes straight into an FNV state; the oracle properties in
   test_hash.ml hold it to these, value for value. Nothing outside the
   test suite uses them. *)

module Auth = Btr_crypto.Auth
module Authlog = Btr_evidence.Authlog
module Evidence = Btr_evidence.Evidence

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let digest_into acc s =
  let h = ref acc in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let digest s = digest_into fnv_offset s

let value_digest v =
  let buf = Buffer.create 32 in
  Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%h;" x)) v;
  digest (Buffer.contents buf)

let encode_entry = function
  | Authlog.Sent { flow; period; digest } -> Printf.sprintf "S|%d|%d|%Lx" flow period digest
  | Authlog.Received { flow; period; digest; from_node } ->
    Printf.sprintf "R|%d|%d|%Lx|%d" flow period digest from_node
  | Authlog.Executed { task; period; output_digest } ->
    Printf.sprintf "E|%d|%d|%Lx" task period output_digest

let chain_extend prev record = digest_into (Int64.add prev 1L) record

let chain_head entries =
  List.fold_left (fun h e -> chain_extend h (encode_entry e)) fnv_offset entries

let audit (cp : Authlog.checkpoint) presented =
  if List.length presented < cp.Authlog.cp_length then Authlog.Truncated
  else begin
    let rec walk chain n = function
      | _ when n = cp.Authlog.cp_length ->
        if Int64.equal chain cp.Authlog.cp_head then Authlog.Consistent
        else Authlog.Tampered { at_length = n }
      | [] -> Authlog.Truncated
      | e :: rest -> walk (chain_extend chain (encode_entry e)) (n + 1) rest
    in
    walk fnv_offset 0 presented
  end

let checkpoint_message ~owner ~length ~head =
  Printf.sprintf "checkpoint|%d|%d|%Lx" owner length head

let accused_name = function
  | Evidence.Node n -> Printf.sprintf "node:%d" n
  | Evidence.Path (a, b) -> Printf.sprintf "path:%d-%d" a b

let encode (s : Evidence.statement) =
  Printf.sprintf "%s|%s|det:%d|p:%d|t:%d|%s" (accused_name s.accused)
    (Format.asprintf "%a" Evidence.pp_fault_class s.fault_class)
    s.detector s.period s.detected_at s.detail
