module Auth = Btr_crypto.Auth
module Fnv = Btr_util.Fnv

type entry =
  | Sent of { flow : int; period : int; digest : int64 }
  | Received of { flow : int; period : int; digest : int64; from_node : int }
  | Executed of { task : int; period : int; output_digest : int64 }

let field h n =
  Fnv.add_char h '|';
  Fnv.add_int h n

(* The entry's canonical encoding — [S|flow|period|digest-hex],
   [R|flow|period|digest-hex|from] or [E|task|period|digest-hex] —
   written straight into the hasher. *)
let hash_entry h e =
  match e with
  | Sent { flow; period; digest } ->
    Fnv.add_char h 'S';
    field h flow;
    field h period;
    Fnv.add_char h '|';
    Fnv.add_hex h digest
  | Received { flow; period; digest; from_node } ->
    Fnv.add_char h 'R';
    field h flow;
    field h period;
    Fnv.add_char h '|';
    Fnv.add_hex h digest;
    field h from_node
  | Executed { task; period; output_digest } ->
    Fnv.add_char h 'E';
    field h task;
    field h period;
    Fnv.add_char h '|';
    Fnv.add_hex h output_digest

(* Advance a hasher holding the chain head by one entry. *)
let link h e =
  Auth.Chain.start h (Fnv.value h);
  hash_entry h e

type t = {
  log_owner : int;
  mutable rev_entries : entry list;
  chain : Fnv.t;  (* holds the head *)
  mutable count : int;
}

let create ~owner =
  let chain = Fnv.create () in
  Fnv.reset chain Auth.Chain.genesis;
  { log_owner = owner; rev_entries = []; chain; count = 0 }

let owner t = t.log_owner

let append t e =
  t.rev_entries <- e :: t.rev_entries;
  link t.chain e;
  t.count <- t.count + 1

let length t = t.count
let head t = Fnv.value t.chain
let entries t = List.rev t.rev_entries

type checkpoint = {
  cp_owner : int;
  cp_length : int;
  cp_head : Auth.Chain.link;
  cp_tag : Auth.tag;
}

(* [checkpoint|owner|length|head-hex], fed into the signer's hasher. *)
let checkpoint_message ~owner ~length ~head h =
  Fnv.add_string h "checkpoint|";
  Fnv.add_int h owner;
  Fnv.add_char h '|';
  Fnv.add_int h length;
  Fnv.add_char h '|';
  Fnv.add_hex h head

let checkpoint t auth secret =
  if Auth.owner_of_secret secret <> t.log_owner then
    invalid_arg "Authlog.checkpoint: secret does not belong to the log owner";
  {
    cp_owner = t.log_owner;
    cp_length = t.count;
    cp_head = head t;
    cp_tag =
      Auth.sign_with auth secret
        (checkpoint_message ~owner:t.log_owner ~length:t.count ~head:(head t));
  }

let verify_checkpoint auth cp =
  Auth.verify_with auth ~signer:cp.cp_owner
    (checkpoint_message ~owner:cp.cp_owner ~length:cp.cp_length ~head:cp.cp_head)
    cp.cp_tag

type audit_result = Consistent | Tampered of { at_length : int } | Truncated

let audit cp presented =
  if List.length presented < cp.cp_length then Truncated
  else begin
    (* Fold the chain over exactly the committed prefix. *)
    let h = Fnv.create () in
    Fnv.reset h Auth.Chain.genesis;
    let rec walk n = function
      | _ when n = cp.cp_length ->
        if Int64.equal (Fnv.value h) cp.cp_head then Consistent
        else Tampered { at_length = n }
      | [] -> Truncated
      | e :: rest ->
        link h e;
        (* Early exit is impossible without per-entry commitments, so
           mismatches surface only at the committed head. *)
        walk (n + 1) rest
    in
    walk 0 presented
  end
