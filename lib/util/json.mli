(** JSON string escaping, shared by every JSON writer in the
    repository (obs registry and trace events, verifier diagnostics,
    campaign artifacts), so all of them encode a string the same way. *)

val escape : Buffer.t -> string -> unit
(** [escape b s] appends [s] to [b] as the body of a JSON string
    literal, without the surrounding quotes: ['"'] and ['\\'] are
    backslash-escaped, newline, carriage return and tab become [\n],
    [\r] and [\t], other control characters become [\u00XX], and every
    other byte is copied as is. *)
