open Btr_util
module Auth = Btr_crypto.Auth
module Obs = Btr_obs.Obs

type fault_class =
  | Wrong_value
  | Omission
  | Omission_suspected
  | Timing
  | Equivocation
  | Forged_evidence

let fault_class_name = function
  | Wrong_value -> "wrong-value"
  | Omission -> "omission"
  | Omission_suspected -> "omission-suspected"
  | Timing -> "timing"
  | Equivocation -> "equivocation"
  | Forged_evidence -> "forged-evidence"

let pp_fault_class ppf c = Format.pp_print_string ppf (fault_class_name c)

type accused = Node of int | Path of int * int

let path a b = if a <= b then Path (a, b) else Path (b, a)

let accused_name = function
  | Node n -> "node:" ^ string_of_int n
  | Path (a, b) -> "path:" ^ string_of_int a ^ "-" ^ string_of_int b

type statement = {
  accused : accused;
  fault_class : fault_class;
  detector : int;
  period : int;
  detected_at : Time.t;
  detail : string;
}

let encode s =
  String.concat "|"
    [
      accused_name s.accused;
      fault_class_name s.fault_class;
      "det:" ^ string_of_int s.detector;
      "p:" ^ string_of_int s.period;
      "t:" ^ string_of_int s.detected_at;
      s.detail;
    ]

type record = { statement : statement; tag : Auth.tag }

let sign auth secret statement =
  if Auth.owner_of_secret secret <> statement.detector then
    invalid_arg "Evidence.sign: detector must sign its own statements";
  { statement; tag = Auth.sign auth secret (encode statement) }

let validate_encoded auth r encoded =
  Auth.verify auth ~signer:r.statement.detector encoded r.tag

let validate auth r = validate_encoded auth r (encode r.statement)
let wire_size encoded = String.length encoded + 16
let size_bytes r = wire_size (encode r.statement)
let dedup_key r = encode r.statement

let pp ppf r =
  let s = r.statement in
  Format.fprintf ppf "[%a by node %d @ %a, period %d: %s]" pp_fault_class
    s.fault_class s.detector Time.pp s.detected_at s.period
    (match s.accused with
    | Node n -> Printf.sprintf "node %d" n
    | Path (a, b) -> Printf.sprintf "path %d-%d" a b)

module Distributor = struct
  type verdict = Fresh | Duplicate | Invalid

  let verdict_name = function
    | Fresh -> "fresh"
    | Duplicate -> "duplicate"
    | Invalid -> "invalid"

  type t = {
    node : int;
    obs : Obs.t;
    fresh_count : Obs.Counter.t;
    dedup_count : Obs.Counter.t;
    invalid_count : Obs.Counter.t;
    seen_keys : (string, unit) Hashtbl.t;
    mutable rev_seen : record list;
    sent : (string * int, unit) Hashtbl.t;
    invalid_by : (int, int) Hashtbl.t;
    mutable last_fresh : (record * string) option;
        (* the record [admit] last found fresh, with its encoding: the
           [forward] that follows reuses it instead of re-encoding *)
  }

  let create ~node ?(obs = Obs.null) () =
    let reg = Obs.registry obs in
    {
      node;
      obs;
      fresh_count = Obs.Registry.counter reg Obs.Evidence "records-admitted";
      dedup_count = Obs.Registry.counter reg Obs.Evidence "dedup-hits";
      invalid_count = Obs.Registry.counter reg Obs.Evidence "validation-failures";
      seen_keys = Hashtbl.create 32;
      rev_seen = [];
      sent = Hashtbl.create 64;
      invalid_by = Hashtbl.create 8;
      last_fresh = None;
    }

  let node t = t.node

  let admit ?now t auth r =
    let k = dedup_key r in
    let verdict =
      if not (validate_encoded auth r k) then begin
        let signer = r.statement.detector in
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.invalid_by signer) in
        Hashtbl.replace t.invalid_by signer (prev + 1);
        Obs.Counter.incr t.invalid_count;
        Invalid
      end
      else begin
        if Hashtbl.mem t.seen_keys k then begin
          Obs.Counter.incr t.dedup_count;
          Duplicate
        end
        else begin
          Hashtbl.replace t.seen_keys k ();
          t.rev_seen <- r :: t.rev_seen;
          t.last_fresh <- Some (r, k);
          Obs.Counter.incr t.fresh_count;
          Fresh
        end
      end
    in
    (match now with
    | Some at when Obs.enabled t.obs ->
      Obs.emit t.obs ~at ~node:t.node Obs.Evidence
        (Obs.Evidence_admitted
           {
             verdict = verdict_name verdict;
             detector = r.statement.detector;
             accused = accused_name r.statement.accused;
           })
    | _ -> ());
    verdict

  let forward t r ~dsts send =
    let k =
      match t.last_fresh with
      | Some (fresh, k) when fresh == r -> k
      | Some _ | None -> dedup_key r
    in
    let size_bytes = wire_size k in
    List.iter
      (fun dst ->
        if dst <> t.node && not (Hashtbl.mem t.sent (k, dst)) then begin
          Hashtbl.replace t.sent (k, dst) ();
          send ~dst ~size_bytes
        end)
      dsts

  let seen t = List.rev t.rev_seen

  let invalid_count_from t n =
    Option.value ~default:0 (Hashtbl.find_opt t.invalid_by n)
end
