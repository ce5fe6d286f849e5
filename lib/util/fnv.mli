(** FNV-1a hashing, 64-bit.

    The one string hash everything deterministic keys on: campaign
    artifact fingerprints, the sharded plan cache's shard selector, and
    the simulated MACs, log chains and payload digests of
    [Btr_crypto.Auth]. Stable across runs, processes and OCaml versions
    — unlike [Hashtbl.hash], which is explicitly unspecified — so hashes
    may appear in persisted artifacts and in CI assertions. *)

val offset : int64
(** The FNV-1a 64-bit offset basis: the state of a fresh hasher. *)

val prime : int64

(** {1 Streaming}

    A hasher is a mutable 64-bit state that the [add_*] functions feed
    without allocating: each writes the bytes a [Printf] conversion
    would produce straight into the hash, so no intermediate string is
    ever built. A hasher belongs to whoever created it; nothing here is
    shared between callers or domains. *)

type t

val create : unit -> t
(** A hasher at {!offset}. *)

val reset : t -> int64 -> unit
(** Restart from an arbitrary state (a keyed or chained seed). *)

val value : t -> int64
(** The hash of everything fed since the last {!reset}. *)

val add_char : t -> char -> unit
val add_string : t -> string -> unit

val add_int : t -> int -> unit
(** The bytes of [Printf "%d"]. *)

val add_hex : t -> int64 -> unit
(** The bytes of [Printf "%Lx"]: unsigned, lowercase, unpadded. *)

val add_hex_float : t -> float -> unit
(** The bytes of [Printf "%h"], including [-0x0p+0], [infinity],
    [-infinity], [nan] and [-nan]. *)

(** {1 One-shot} *)

val hash64 : string -> int64
(** FNV-1a over the bytes of the string. *)

val hash64_lines : string list -> int64
(** FNV-1a over the lines with a ['\n'] mixed in after each — the
    campaign artifact fingerprint ({!Btr_campaign.Campaign.fingerprint}
    renders it with {!to_hex}). *)

val hash : string -> int
(** {!hash64} truncated to a non-negative OCaml [int]; use for shard
    and bucket selection. *)

val to_hex : int64 -> string
(** 16 lowercase hex digits, zero-padded. *)
