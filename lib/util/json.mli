(** Minimal JSON: one value type, parser and printer, no dependencies.

    The only JSON codec in the project (the toolchain deliberately has no
    JSON dependency). Everything that speaks JSON prints and parses through
    it: the serve wire protocol, the run journal ([Journal]), the
    supervisor's worker->parent pipe, [Diag.to_json] error objects, SARIF
    logs, the chaos proxy's fault report and the engine trace files audited
    by [minflo audit-run]. The dialect is objects, arrays, strings, finite
    numbers, bools and null, one value per line.

    Numbers print in the shortest form that parses back to the identical
    float — the daemon's bit-identical replay guarantees ride on values
    surviving print/parse round trips. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Strict parse of one complete value; [Error] carries a message with a
    byte offset. Rejects trailing garbage. *)

val to_string : t -> string
(** One line, no trailing newline. [Num nan] and infinities render as
    [null]; use {!float} where a non-finite value must survive. *)

val int : int -> t
(** [Num (float_of_int i)]. *)

val float : float -> t
(** [Num v] for a finite [v]; a non-finite one becomes its ["%h"] string
    (["nan"], ["infinity"], ["-infinity"]), which {!to_float} reads back. *)

(** {1 Accessors} — each returns [None] on a missing key or wrong shape. *)

val member : string -> t -> t option
val to_str : t -> string option
val to_num : t -> float option

val to_float : t -> float option
(** Inverse of {!float}: a number, or a string spelling a non-finite
    float. *)

val to_int : t -> int option
val to_bool : t -> bool option
val str_field : string -> t -> string option
val num_field : string -> t -> float option
val float_field : string -> t -> float option
val int_field : string -> t -> int option
val bool_field : string -> t -> bool option
