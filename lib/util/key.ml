(* Content keys: the hex MD5 of a canonical encoding. *)

let of_string s = Digest.to_hex (Digest.string s)

(* [No_sharing] keeps physical sharing out of the bytes, so structurally
   equal values always digest equally. *)
let of_value v = of_string (Marshal.to_string v [ Marshal.No_sharing ])
