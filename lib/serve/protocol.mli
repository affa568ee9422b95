(** phloemd's wire protocol: line-delimited JSON requests and responses.

    A request is one JSON object per line:
    {v
      {"kind":"simulate","id":1,"bench":"bfs","variant":"phloem",
       "input":"internet","scale":0.05}
      {"kind":"stats"}  {"kind":"ping"}  {"kind":"shutdown"}
    v}

    A response is one JSON object per line with a ["status"] of ["ok"],
    ["error"], or ["shed"]. Ok responses carry the result payload in a
    trailing ["result"] field spliced as raw bytes, so a cache hit returns
    the exact bytes of the cold run that filled the cache. *)

module Json = Phloem_util.Json

type job = {
  j_bench : string;
  j_variant : string;  (** serial | phloem | data-parallel | manual *)
  j_input : string;
  j_scale : float;
  j_stages : int;  (** static-flow stage count for the phloem variant *)
  j_threads : int;  (** thread count for the data-parallel variant *)
  j_inject : Pipette.Faults.plan option;
  j_watchdog : int option;
  j_cycle_budget : int option;
}
(** One compile+simulate job. Jobs carry generator parameters, not program
    text: generation and compilation are deterministic in these fields, so
    they are the content the result cache is addressed by. *)

val default_job : job
(** bfs / phloem / internet at scale 1.0, stages 4, threads 4, no faults. *)

type request =
  | Simulate of { id : Json.t; job : job }
  | Stats of { id : Json.t }
  | Ping of { id : Json.t }
  | Shutdown of { id : Json.t }

type reject = { rj_code : string; rj_msg : string }
(** [rj_code] is ["oversized"], ["bad-request"], or ["unknown-kind"]. *)

val parse_request : max_bytes:int -> string -> (request, reject) result
(** Parse one request line. Rejects lines longer than [max_bytes] before
    parsing; client-supplied ids are echoed but sanitized to scalar JSON. *)

val simulate_request : ?id:Json.t -> job -> string
(** Encode a simulate request line (client side). *)

val plain_request : ?id:Json.t -> string -> string
(** Encode a bodyless request line of the given kind (ping/stats/...). *)

val canonical_of_job : job -> string
(** The canonical serialization the content key hashes: every job field,
    the machine-config digest, the functional op budget, and a key-schema
    version tag. Documented in DESIGN.md "Simulation as a service". *)

val content_key : job -> string
(** Hex digest of {!canonical_of_job} — the result cache's address. *)

val ok_response : id:Json.t -> cached:bool -> string -> string
(** [ok_response ~id ~cached payload] splices the raw payload bytes into
    the envelope as the trailing ["result"] field. *)

val error_response :
  id:Json.t -> code:string -> ?failure:Json.t -> string -> string
(** Structured error envelope; [failure] carries a forensics report for
    deadlock / livelock / budget-exhausted jobs. *)

val shed_response : id:Json.t -> queued:int -> limit:int -> string
(** Backpressure envelope: the bounded job queue is full and the request
    was not enqueued. *)

val response_status : Json.t -> string
val response_cached : Json.t -> bool

val response_payload_raw : string -> string option
(** Raw bytes of an ok response line's ["result"] field, exactly as the
    daemon spliced them (byte-identical across cached and cold responses). *)
