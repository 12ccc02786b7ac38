(** Versioned binary persistence of a serving model.

    File layout (everything little-endian):

    {v
    offset  size  field
    0       8     magic "CBMFSNAP"
    8       4     format version (u32, currently 1)
    12      4     reserved (u32, must be 0)
    16      8     payload length in bytes (u64)
    24      8     FNV-1a 64-bit checksum of the payload (u64)
    32      —     payload (version-specific encoding of {!Model.t})
    v}

    The header is fixed forever; only the payload encoding is
    versioned.  [save] followed by [load] round-trips the model
    {e bit-identically} ({!Model.equal}), and saving the loaded model
    reproduces the file byte-for-byte.

    Loading is paranoid: a short header, a bad magic, a version this
    build does not know, a payload length that disagrees with the file
    size, a checksum mismatch, or a payload that decodes to an
    inconsistent model all raise
    [Cbmf_robust.Fault.(Error (Bad_snapshot _))] — never a segfault,
    never a module-private exception.  The fault's [site] is
    ["snapshot.load"] (or ["serve.decode"] when raised through the
    wire-transfer entry points). *)

val encode : Model.t -> string
(** The full snapshot image (header + payload) as bytes. *)

val decode : ?site:string -> string -> Model.t
(** Parse a snapshot image.  [site] (default ["snapshot.load"]) names
    the fault site used when rejecting bad bytes.  Honors the
    {!Cbmf_robust.Inject} harness at site ["serve.decode"]: when armed
    there, an injected decode failure raises the same typed fault a
    genuinely corrupt image would. *)

val save : path:string -> Model.t -> unit
(** Write atomically: encode to [path ^ ".tmp"], then rename, so a
    crash mid-write never leaves a torn file under the real name. *)

val load : path:string -> Model.t
(** Read and {!decode} the file.  I/O errors ([Unix_error], [Sys_error])
    are reported as [Bad_snapshot] too — a missing file is just another
    way for a snapshot to be unreadable. *)
