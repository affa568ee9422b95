(* Wire protocol of phloemd: line-delimited JSON over a Unix-domain (or
   TCP) socket. Each request is one JSON object on one line; each response
   is one JSON object on one line. The response envelope is assembled by
   string splicing with the ["result"] field last, so a cached response can
   return the stored payload bytes verbatim — byte-identical to the cold
   run that produced them. *)

module Json = Phloem_util.Json

(* A compile+simulate job, the unit of daemon work. Jobs name a benchmark,
   variant, and generated input rather than carrying program text: input
   generation and compilation are deterministic functions of these fields
   (PR 3), so the fields are the content. *)
type job = {
  j_bench : string;
  j_variant : string; (* serial | phloem | data-parallel | manual *)
  j_input : string;
  j_scale : float;
  j_stages : int; (* static-flow stage count for the phloem variant *)
  j_threads : int; (* thread count for the data-parallel variant *)
  j_inject : Pipette.Faults.plan option;
  j_watchdog : int option;
  j_cycle_budget : int option;
}

let default_job =
  {
    j_bench = "bfs";
    j_variant = "phloem";
    j_input = "internet";
    j_scale = 1.0;
    j_stages = 4;
    j_threads = 4;
    j_inject = None;
    j_watchdog = None;
    j_cycle_budget = None;
  }

type request =
  | Simulate of { id : Json.t; job : job }
  | Stats of { id : Json.t }
  | Ping of { id : Json.t }
  | Shutdown of { id : Json.t }

type reject = { rj_code : string; rj_msg : string }
(* rj_code: "oversized" | "bad-request" | "unknown-kind" *)

(* --- request parsing --------------------------------------------------- *)

let str_field j k =
  match Json.member k j with Some (Json.Str s) -> Some s | _ -> None

let int_field j k =
  match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let float_field j k =
  match Json.member k j with
  | Some n -> Json.to_float_opt n
  | None -> None

(* Echoed ids are restricted to scalars: a client-supplied structured id
   spliced into the envelope could interfere with raw-payload extraction
   (see [response_payload_raw]); scalar JSON values cannot contain an
   unescaped ["result": ] byte sequence. *)
let sanitize_id j =
  match Json.member "id" j with
  | Some ((Json.Int _ | Json.Str _ | Json.Null) as id) -> id
  | _ -> Json.Null

let job_of_json j : (job, string) result =
  match str_field j "bench" with
  | None -> Error "simulate request needs a \"bench\" field"
  | Some bench -> (
    match str_field j "input" with
    | None -> Error "simulate request needs an \"input\" field"
    | Some input -> (
      let base =
        {
          default_job with
          j_bench = bench;
          j_input = input;
          j_variant =
            Option.value (str_field j "variant") ~default:default_job.j_variant;
          j_scale = Option.value (float_field j "scale") ~default:1.0;
          j_stages = Option.value (int_field j "stages") ~default:4;
          j_threads = Option.value (int_field j "threads") ~default:4;
          j_watchdog = int_field j "watchdog";
          j_cycle_budget = int_field j "cycle_budget";
        }
      in
      match str_field j "inject" with
      | None -> Ok base
      | Some plan_s -> (
        match Pipette.Faults.of_string plan_s with
        | Error msg -> Error (Printf.sprintf "bad \"inject\" plan: %s" msg)
        | Ok plan ->
          let plan =
            match int_field j "fault_key" with
            | Some k -> { plan with Pipette.Faults.fp_key = k }
            | None -> plan
          in
          Ok { base with j_inject = Some plan })))

let parse_request ~max_bytes (line : string) : (request, reject) result =
  if String.length line > max_bytes then
    Error
      {
        rj_code = "oversized";
        rj_msg =
          Printf.sprintf "request is %d bytes; the limit is %d"
            (String.length line) max_bytes;
      }
  else
    match Json.of_string line with
    | exception Json.Parse_error msg ->
      Error { rj_code = "bad-request"; rj_msg = "malformed JSON: " ^ msg }
    | j -> (
      let id = sanitize_id j in
      match str_field j "kind" with
      | None ->
        Error { rj_code = "bad-request"; rj_msg = "missing \"kind\" field" }
      | Some "ping" -> Ok (Ping { id })
      | Some "stats" -> Ok (Stats { id })
      | Some "shutdown" -> Ok (Shutdown { id })
      | Some "simulate" -> (
        match job_of_json j with
        | Ok job -> Ok (Simulate { id; job })
        | Error msg -> Error { rj_code = "bad-request"; rj_msg = msg })
      | Some other ->
        Error
          {
            rj_code = "unknown-kind";
            rj_msg = Printf.sprintf "unknown request kind %S" other;
          })

(* --- request encoding (client side) ------------------------------------ *)

let json_of_job (j : job) : (string * Json.t) list =
  [
    ("bench", Json.Str j.j_bench);
    ("variant", Json.Str j.j_variant);
    ("input", Json.Str j.j_input);
    ("scale", Json.Float j.j_scale);
    ("stages", Json.Int j.j_stages);
    ("threads", Json.Int j.j_threads);
  ]
  @ (match j.j_inject with
    | Some p ->
      [
        ("inject", Json.Str (Pipette.Faults.to_string p));
        ("fault_key", Json.Int p.Pipette.Faults.fp_key);
      ]
    | None -> [])
  @ (match j.j_watchdog with Some w -> [ ("watchdog", Json.Int w) ] | None -> [])
  @
  match j.j_cycle_budget with
  | Some b -> [ ("cycle_budget", Json.Int b) ]
  | None -> []

let simulate_request ?(id = Json.Null) (j : job) : string =
  let id_field = match id with Json.Null -> [] | id -> [ ("id", id) ] in
  Json.to_string (Json.Obj ((("kind", Json.Str "simulate") :: id_field) @ json_of_job j))

let plain_request ?(id = Json.Null) kind : string =
  let id_field = match id with Json.Null -> [] | id -> [ ("id", id) ] in
  Json.to_string (Json.Obj (("kind", Json.Str kind) :: id_field))

(* --- content-addressed key ---------------------------------------------

   The key must cover everything a result depends on. Simulation is a pure
   function of (program, input, machine config, fault plan) — PR 3 made
   timing deterministic in the program and input, and input generation and
   compilation are themselves deterministic in (bench, variant, input name,
   scale, stages, threads). The machine config and the functional op budget
   are process-global and folded in as a digest; the fault plan is folded
   in canonically (its key + its round-tripping string form). A version
   tag salts the key so a protocol change never aliases old entries. *)

let key_version = 1

let config_digest =
  lazy
    (Phloem_util.Key.of_value
       (Pipette.Config.default, Pipette.Config.default_energy))

let canonical_of_job (j : job) : string =
  Json.to_string
    (Json.Obj
       [
         ("v", Json.Int key_version);
         ("bench", Json.Str j.j_bench);
         ("variant", Json.Str j.j_variant);
         ("input", Json.Str j.j_input);
         ("scale", Json.Float j.j_scale);
         ("stages", Json.Int j.j_stages);
         ("threads", Json.Int j.j_threads);
         ( "faults",
           match j.j_inject with
           | None -> Json.Null
           | Some p ->
             Json.Str
               (Printf.sprintf "%d:%s" p.Pipette.Faults.fp_key
                  (Pipette.Faults.to_string p)) );
         ( "watchdog",
           match j.j_watchdog with Some w -> Json.Int w | None -> Json.Null );
         ( "cycle_budget",
           match j.j_cycle_budget with Some b -> Json.Int b | None -> Json.Null );
         ("config", Json.Str (Lazy.force config_digest));
         ("max_ops", Json.Int (Phloem_ir.Interp.max_ops ()));
       ])

let content_key (j : job) : string = Phloem_util.Key.of_string (canonical_of_job j)

(* --- response encoding -------------------------------------------------- *)

(* The ok envelope is spliced, not rebuilt from a parsed tree: [payload] is
   stored and returned as raw bytes, which is what makes a cache hit
   byte-identical to the cold response that filled it. ["result"] is the
   last field and everything before it is an escaped scalar, so the first
   unescaped [,"result":] in the line delimits the payload unambiguously. *)
let result_marker = ",\"result\":"

let ok_response ~id ~cached (payload : string) : string =
  Printf.sprintf "{\"id\":%s,\"status\":\"ok\",\"cached\":%b%s%s}"
    (Json.to_string id) cached result_marker payload

let error_response ~id ~code ?failure msg : string =
  Json.to_string
    (Json.Obj
       ([
          ("id", id);
          ("status", Json.Str "error");
          ("code", Json.Str code);
          ("message", Json.Str msg);
        ]
       @ match failure with Some f -> [ ("failure", f) ] | None -> []))

let shed_response ~id ~queued ~limit : string =
  Json.to_string
    (Json.Obj
       [
         ("id", id);
         ("status", Json.Str "shed");
         ("code", Json.Str "queue-full");
         ("queued", Json.Int queued);
         ("limit", Json.Int limit);
         ( "message",
           Json.Str
             "job queue is full; the daemon is shedding load — retry with \
              backoff" );
       ])

(* --- response decoding (client side) ------------------------------------ *)

let response_status (j : Json.t) : string =
  Option.value ~default:"?" (str_field j "status")

let response_cached (j : Json.t) : bool =
  match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false

(* Raw bytes of the ok envelope's ["result"] field — exactly as the daemon
   spliced them, so writing them to a file preserves byte identity across
   cached and cold responses. *)
let response_payload_raw (line : string) : string option =
  let line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\n' then String.sub line 0 (n - 1) else line
  in
  let mlen = String.length result_marker in
  let n = String.length line in
  let rec find i =
    if i + mlen > n then None
    else if String.sub line i mlen = result_marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | Some start when n > start && line.[n - 1] = '}' ->
    Some (String.sub line start (n - 1 - start))
  | _ -> None
