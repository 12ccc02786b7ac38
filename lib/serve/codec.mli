(** Endian-fixed binary encoding primitives shared by the snapshot
    format and the wire protocol.

    Everything is little-endian regardless of host byte order; floats
    travel as their IEEE-754 bit patterns ([Int64.bits_of_float]), so a
    value round-trips {e bit-identically} — including negative zeros,
    subnormals and NaN payloads.

    Readers never trust the input: every length is bounds-checked
    against the remaining bytes before any allocation, and any
    inconsistency raises {!Corrupt} with a human-readable reason.
    Callers (the snapshot loader, the protocol decoder) translate
    {!Corrupt} into their own typed error — it never escapes the
    library. *)

exception Corrupt of string
(** The bytes do not decode: truncated input, a length field that
    exceeds the remaining payload, an invalid tag, a count that is
    negative or absurdly large. *)

(** {1 Writing}

    The writer appends into one growable [Bytes] buffer with in-place
    little-endian stores — no per-field scratch cell, no intermediate
    copies, and (in native code) no boxed [int64] per float: bulk
    float payloads are a single capacity check followed by a tight
    unboxed store loop.  A writer opened with [~frame:true]
    additionally reserves 4 bytes for the wire length prefix so a
    whole framed message is one allocation (see {!frame_bytes}). *)

type writer

val writer : ?frame:bool -> unit -> writer
(** [frame] (default false) reserves 4 leading bytes for a u32-LE
    length prefix, to be patched by {!frame_bytes}. *)

val contents : writer -> string
(** The written body (excluding any reserved frame prefix), as a fresh
    string. *)

val frame_bytes : writer -> Bytes.t * int
(** For a [~frame:true] writer: patch the length prefix with the body
    length and return [(buf, total_len)] — the underlying buffer and
    the number of valid bytes ([4 + body]).  Zero-copy: the buffer is
    the writer's own storage, only valid until the next write.  Raises
    [Invalid_argument] on an unframed writer. *)

val length : writer -> int
(** Body length written so far (excluding any frame prefix). *)

val w_u8 : writer -> int -> unit
(** [0, 255]. *)

val w_u32 : writer -> int -> unit
(** Non-negative, at most [2^31 - 1] (asserted — encoder-side counts
    are trusted). *)

val w_i64 : writer -> int64 -> unit

val w_f64 : writer -> float -> unit

val w_string : writer -> string -> unit
(** u32 length + raw bytes. *)

val w_f64_array : writer -> float array -> unit

val w_u32_array : writer -> int array -> unit

val w_mat : writer -> Cbmf_linalg.Mat.t -> unit
(** u32 rows, u32 cols, rows·cols f64s (row-major). *)

(** {1 Reading} *)

type reader

val reader : ?pos:int -> ?len:int -> string -> reader
(** A cursor over [s.[pos .. pos+len-1]] (default: the whole string). *)

val remaining : reader -> int

val r_u8 : reader -> int

val r_u32 : reader -> int

val r_i64 : reader -> int64

val r_f64 : reader -> float

val r_string : ?max_len:int -> reader -> string
(** [max_len] (default 16 MiB) guards against hostile length fields. *)

val r_f64_array : reader -> float array

val r_u32_array : reader -> int array

val r_mat : reader -> Cbmf_linalg.Mat.t

val expect_end : reader -> unit
(** Raises {!Corrupt} unless the cursor consumed the whole slice —
    trailing garbage is as suspect as truncation. *)

(** {1 Checksum} *)

val fnv64 : ?pos:int -> ?len:int -> string -> int64
(** FNV-1a, 64-bit, over the byte range (default: whole string). *)
