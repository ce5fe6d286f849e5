(** The repository's one JSON codec. Every JSON line it writes or reads
    back — obs registry and trace events, verifier diagnostics, campaign
    and frontier artifacts — goes through this module, so all of them
    encode a string the same way and every reader rejects bad input the
    same way.

    The format is deliberately small: flat objects whose values are
    integers, strings or booleans. Writers may nest ({!key} then an
    inner object or array); the reader accepts only flat objects. *)

type value = Int of int | Str of string | Bool of bool

type fields = (string * value) list
(** One parsed object, fields in source order. *)

val escape : Buffer.t -> string -> unit
(** [escape b s] appends [s] to [b] as the body of a JSON string
    literal, without the surrounding quotes: ['"'] and ['\\'] are
    backslash-escaped, newline, carriage return and tab become [\n],
    [\r] and [\t], other control characters become [\u00XX], and every
    other byte is copied as is. *)

(** {1 Member writers}

    Each appends one ["key":value] member to an object the caller has
    opened with ['{']. The separating comma is placed automatically: it
    is written unless [b] is empty or ends in ['{']. *)

val key : Buffer.t -> string -> unit
(** [key b k] writes the separator and ["k":], for a member whose value
    the caller writes next (a nested object or array). *)

val int : Buffer.t -> string -> int -> unit
val str : Buffer.t -> string -> string -> unit
val bool : Buffer.t -> string -> bool -> unit

val ints : Buffer.t -> string -> int list -> unit
(** A member whose value is an array of integers. *)

val to_string : fields -> string
(** One flat object, fields in list order. {!parse} inverts it:
    [parse (to_string fields) = Ok fields], and re-encoding is
    byte-identical. *)

(** {1 Reader} *)

val parse : string -> (fields, string) result
(** Parse one flat object of integer, string and boolean fields, in
    source order. Anything else — nesting, arrays, [null], fractional
    or exponent numbers, integers out of range, trailing input — is an
    [Error] with a byte offset; [parse] never raises. [\uXXXX] escapes
    above [0x7f] decode to ['?']. *)

val parse_lines : string list -> ((string * fields) list, string) result
(** {!parse} every non-blank line of a JSONL document, pairing each line
    with its fields; the first malformed line is an [Error] that quotes
    it. *)

(** {1 Field accessors}

    [None] when the field is absent or holds another type. *)

val get_int : fields -> string -> int option
val get_str : fields -> string -> string option
val get_bool : fields -> string -> bool option
