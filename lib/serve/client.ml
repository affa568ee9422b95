(* Minimal blocking client for phloemd's line protocol, used by
   `simulate --remote` and the tests. *)

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let with_unix path f =
  let fd = connect_unix path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let send_line fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length data in
  let rec loop off =
    if off < n then loop (off + Unix.write fd data off (n - off))
  in
  loop 0

(* One response line, without its newline. Peeks up to [chunk] bytes at a
   time and consumes only through the newline, so a response pipelined
   behind this one stays in the socket for the next call.
   @raise End_of_file if the daemon hangs up first. *)
let chunk = 4096

let recv_line fd =
  let buf = Buffer.create 1024 in
  let b = Bytes.create chunk in
  (* consume [k] peeked bytes, keeping the first [keep] of them *)
  let rec consume k keep =
    if k > 0 then begin
      let n = Unix.read fd b 0 k in
      if n = 0 then raise End_of_file;
      Buffer.add_subbytes buf b 0 (min n keep);
      consume (k - n) (keep - n)
    end
  in
  let rec loop () =
    match Unix.recv fd b 0 chunk [ Unix.MSG_PEEK ] with
    | 0 -> if Buffer.length buf = 0 then raise End_of_file else Buffer.contents buf
    | n -> (
      let rec newline i =
        if i = n then None else if Bytes.get b i = '\n' then Some i else newline (i + 1)
      in
      match newline 0 with
      | Some i ->
        consume (i + 1) i;
        Buffer.contents buf
      | None ->
        consume n n;
        loop ())
  in
  loop ()

let request fd line =
  send_line fd line;
  recv_line fd
