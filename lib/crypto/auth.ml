open Btr_util

let digest = Fnv.hash64

type secret = { owner : int; key : int64 }
type tag = { signer : int; value : int64 }
type cost_model = { sign_cost : Time.t; verify_cost : Time.t }

let default_costs = { sign_cost = Time.us 50; verify_cost = Time.us 20 }

type t = { keys : (int, int64) Hashtbl.t; costs : cost_model; key_rng : Rng.t }

let create ?(costs = default_costs) () =
  { keys = Hashtbl.create 16; costs; key_rng = Rng.create 0x5EC4E7 }

let gen_key t ~owner =
  if Hashtbl.mem t.keys owner then
    invalid_arg (Printf.sprintf "Auth.gen_key: owner %d already registered" owner);
  let key = Rng.bits64 t.key_rng in
  Hashtbl.replace t.keys owner key;
  { owner; key }

let owner_of_secret s = s.owner

let mac key feed =
  (* Keyed digest: mix the key into both ends so extension attacks on the
     toy digest cannot matter even in principle. *)
  let open Int64 in
  let h = Fnv.create () in
  Fnv.reset h (logxor Fnv.offset key);
  feed h;
  mul (logxor (Fnv.value h) (shift_right_logical key 17)) Fnv.prime

let sign_with _t secret feed = { signer = secret.owner; value = mac secret.key feed }
let sign t secret msg = sign_with t secret (fun h -> Fnv.add_string h msg)

let verify_with t ~signer feed tag =
  tag.signer = signer
  &&
  match Hashtbl.find_opt t.keys signer with
  | None -> false
  | Some key -> Int64.equal (mac key feed) tag.value

let verify t ~signer msg tag = verify_with t ~signer (fun h -> Fnv.add_string h msg) tag

let sign_cost t = t.costs.sign_cost
let verify_cost t = t.costs.verify_cost

let tag_to_string tag = Printf.sprintf "%d:%016Lx" tag.signer tag.value
let equal_tag a b = a.signer = b.signer && Int64.equal a.value b.value
let forge_tag () = { signer = -1; value = 0xDEADBEEFL }

module Chain = struct
  type link = int64

  let genesis = Fnv.offset
  let start h prev = Fnv.reset h (Int64.add prev 1L)

  let extend prev record =
    let h = Fnv.create () in
    start h prev;
    Fnv.add_string h record;
    Fnv.value h

  let of_records records = List.fold_left extend genesis records
end
