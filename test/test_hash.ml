(* Oracle tests for the streaming hashers: every digest, chain head,
   checkpoint tag and evidence signature must equal what the Printf /
   Buffer formulation in Ref_hash produces. No fingerprint or trace
   contains a digest or a chain head, so these properties are the only
   check that the hashed bytes did not change. *)

open Btr_util
module Auth = Btr_crypto.Auth
module Authlog = Btr_evidence.Authlog
module Evidence = Btr_evidence.Evidence
module Behavior = Btr.Behavior

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let hex = Printf.sprintf "%016Lx"

(* Generators: the corners Printf renders specially, then random bit
   patterns. *)

let special_floats =
  [
    0.0;
    -0.0;
    nan;
    -.nan;
    Int64.float_of_bits 0x7ff0000000000001L (* signalling NaN *);
    Int64.float_of_bits 0xfff8000000000001L;
    infinity;
    neg_infinity;
    5e-324;
    -5e-324;
    Int64.float_of_bits 0x000fffffffffffffL (* largest subnormal *);
    Float.min_float;
    max_float;
    -.max_float;
    1.0;
    -1.5;
    0.1;
    1024.0;
  ]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl special_floats);
        (2, map Int64.float_of_bits ui64);
        (1, map Int64.float_of_bits (map (Int64.logand 0x800fffffffffffffL) ui64));
        (1, float);
      ])

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ 0; 1; -1; 9; 10; -10; 99; 100; min_int; max_int; min_int + 1 ]);
        (2, small_signed_int);
        (2, int);
      ])

let gen_int64 =
  QCheck.Gen.(
    frequency
      [ (1, oneofl [ 0L; 1L; -1L; 15L; 16L; Int64.min_int; Int64.max_int ]); (3, ui64) ])

let gen_entry =
  QCheck.Gen.(
    oneof
      [
        map3 (fun flow period digest -> Authlog.Sent { flow; period; digest }) gen_int gen_int
          gen_int64;
        map
          (fun ((flow, period), (digest, from_node)) ->
            Authlog.Received { flow; period; digest; from_node })
          (pair (pair gen_int gen_int) (pair gen_int64 gen_int));
        map3
          (fun task period output_digest -> Authlog.Executed { task; period; output_digest })
          gen_int gen_int gen_int64;
      ])

let print_entry e = Ref_hash.encode_entry e

(* Single conversions: each [add_*] feeds exactly Printf's bytes. *)

let fnv_of feed =
  let h = Fnv.create () in
  feed h;
  Fnv.value h

let prop_conversions =
  QCheck.Test.make ~name:"add_int/add_hex/add_hex_float feed Printf's bytes" ~count:2000
    (QCheck.make
       ~print:(fun (n, (l, x)) -> Printf.sprintf "%d %Lx %h" n l x)
       QCheck.Gen.(pair gen_int (pair gen_int64 gen_float)))
    (fun (n, (l, x)) ->
      Int64.equal (fnv_of (fun h -> Fnv.add_int h n)) (Ref_hash.digest (string_of_int n))
      && Int64.equal (fnv_of (fun h -> Fnv.add_hex h l)) (Ref_hash.digest (Printf.sprintf "%Lx" l))
      && Int64.equal
           (fnv_of (fun h -> Fnv.add_hex_float h x))
           (Ref_hash.digest (Printf.sprintf "%h" x))
      && Int64.equal (Fnv.hash64 (Printf.sprintf "%h" x)) (Ref_hash.digest (Printf.sprintf "%h" x)))

let prop_value_digest =
  QCheck.Test.make ~name:"value_digest matches the %h; reference" ~count:1000
    (QCheck.make
       ~print:(fun v -> String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") v)))
       QCheck.Gen.(array_size (0 -- 6) gen_float))
    (fun v -> Int64.equal (Behavior.value_digest v) (Ref_hash.value_digest v))

let prop_chain_and_audit =
  QCheck.Test.make ~name:"append chain head and audit match the reference" ~count:300
    (QCheck.make
       ~print:(fun (es, (cut, e)) ->
         Printf.sprintf "[%s] cut %d swap %s"
           (String.concat "; " (List.map print_entry es))
           cut (print_entry e))
       QCheck.Gen.(pair (list_size (0 -- 12) gen_entry) (pair (0 -- 14) gen_entry)))
    (fun (entries, (cut, other)) ->
      let auth = Auth.create () in
      let key = Auth.gen_key auth ~owner:3 in
      let log = Authlog.create ~owner:3 in
      List.iter (Authlog.append log) entries;
      let cp = Authlog.checkpoint log auth key in
      let presentations =
        [
          entries;
          List.filteri (fun i _ -> i < cut) entries;
          List.mapi (fun i e -> if i = cut then other else e) entries;
          entries @ [ other ];
        ]
      in
      Int64.equal (Authlog.head log) (Ref_hash.chain_head entries)
      && List.for_all (fun p -> Authlog.audit cp p = Ref_hash.audit cp p) presentations)

let prop_checkpoint_tag =
  QCheck.Test.make ~name:"checkpoint tag signs the reference message" ~count:300
    (QCheck.make ~print:(fun es -> String.concat "; " (List.map print_entry es))
       QCheck.Gen.(list_size (0 -- 8) gen_entry))
    (fun entries ->
      let auth = Auth.create () in
      let _ = Auth.gen_key auth ~owner:0 in
      let key = Auth.gen_key auth ~owner:1 in
      let log = Authlog.create ~owner:1 in
      List.iter (Authlog.append log) entries;
      let cp = Authlog.checkpoint log auth key in
      let msg =
        Ref_hash.checkpoint_message ~owner:1 ~length:(List.length entries)
          ~head:(Ref_hash.chain_head entries)
      in
      Auth.equal_tag cp.Authlog.cp_tag (Auth.sign auth key msg)
      && Authlog.verify_checkpoint auth cp
      && Auth.verify auth ~signer:1 msg cp.Authlog.cp_tag)

let gen_statement =
  QCheck.Gen.(
    map
      (fun ((accused, fault_class), ((period, detected_at), detail)) ->
        { Evidence.accused; fault_class; detector = 0; period; detected_at; detail })
      (pair
         (pair
            (oneof
               [
                 map (fun n -> Evidence.Node n) gen_int;
                 map2 (fun a b -> Evidence.path a b) gen_int gen_int;
               ])
            (oneofl
               [
                 Evidence.Wrong_value;
                 Evidence.Omission;
                 Evidence.Omission_suspected;
                 Evidence.Timing;
                 Evidence.Equivocation;
                 Evidence.Forged_evidence;
               ]))
         (pair (pair gen_int gen_int) (string_size ~gen:printable (0 -- 20)))))

let prop_evidence =
  QCheck.Test.make ~name:"evidence encode, sign and validate match the reference" ~count:500
    (QCheck.make
       ~print:(fun (s, p) -> Printf.sprintf "%s / period %d" (Ref_hash.encode s) p)
       QCheck.Gen.(pair gen_statement gen_int))
    (fun (s, period') ->
      let auth = Auth.create () in
      let k0 = Auth.gen_key auth ~owner:0 in
      let r = Evidence.sign auth k0 s in
      let tampered = { r with Evidence.statement = { s with Evidence.period = period' } } in
      let forged = { r with Evidence.tag = Auth.forge_tag () } in
      let ref_validate (r : Evidence.record) =
        Auth.verify auth ~signer:r.statement.detector (Ref_hash.encode r.statement) r.tag
      in
      String.equal (Evidence.encode s) (Ref_hash.encode s)
      && Auth.equal_tag r.Evidence.tag (Auth.sign auth k0 (Ref_hash.encode s))
      && Evidence.size_bytes r = String.length (Ref_hash.encode s) + 16
      && List.for_all
           (fun r -> Bool.equal (Evidence.validate auth r) (ref_validate r))
           [ r; tampered; forged ])

(* Tags and digests the Printf formulation produced, recorded from it:
   they pin the MAC construction itself, which the properties above can
   only compare against the library's own [Auth.sign]. *)
let test_pinned () =
  let auth = Auth.create () in
  let k0 = Auth.gen_key auth ~owner:0 in
  let k1 = Auth.gen_key auth ~owner:1 in
  List.iter
    (fun (k, m, want) -> check_str m want (Auth.tag_to_string (Auth.sign auth k m)))
    [
      (k0, "", "0:fa78ce785c08dc5c");
      (k0, "pressure=42", "0:7abaf8005afd4e56");
      (k1, "checkpoint|1|3|abc", "1:1353caa7b396677f");
    ];
  let log = Authlog.create ~owner:1 in
  Authlog.append log (Authlog.Sent { flow = 3; period = -2; digest = -5L });
  Authlog.append log
    (Authlog.Received { flow = min_int; period = 7; digest = 0L; from_node = 4 });
  Authlog.append log
    (Authlog.Executed { task = max_int; period = 0; output_digest = Int64.min_int });
  check_str "chain head" "1f80d7f526b92e99" (hex (Authlog.head log));
  check_str "checkpoint tag" "1:ea4d2d7f4354fbea"
    (Auth.tag_to_string (Authlog.checkpoint log auth k1).Authlog.cp_tag);
  let r =
    Evidence.sign auth k0
      {
        Evidence.accused = Evidence.path 4 0;
        fault_class = Evidence.Omission_suspected;
        detector = 0;
        period = -1;
        detected_at = 123456;
        detail = "flow 3 missing, strike 1";
      }
  in
  check_str "evidence tag" "0:c25132880a033f8e" (Auth.tag_to_string r.Evidence.tag);
  check_str "empty value" "cbf29ce484222325" (hex (Behavior.value_digest [||]));
  check_str "special values" "397436935d43fbc3"
    (hex
       (Behavior.value_digest
          [| 0.0; -0.0; nan; -.nan; infinity; neg_infinity; 5e-324; 1.5 |]));
  check_bool "genesis is the FNV offset" true (Int64.equal Auth.Chain.genesis Fnv.offset)

let suite =
  [
    ("pinned tags and digests of the Printf formulation", `Quick, test_pinned);
    QCheck_alcotest.to_alcotest prop_conversions;
    QCheck_alcotest.to_alcotest prop_value_digest;
    QCheck_alcotest.to_alcotest prop_chain_and_audit;
    QCheck_alcotest.to_alcotest prop_checkpoint_tag;
    QCheck_alcotest.to_alcotest prop_evidence;
  ]
