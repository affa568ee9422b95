(** Content keys: the hex MD5 of a canonical encoding. Every memo table and
    content-addressed cache in the tree keys its entries through here, so
    two equal contents always share a key and the digest scheme lives in
    one place. *)

val of_string : string -> string
(** [of_string canon] is the hex MD5 of [canon]; the caller builds the
    canonical string. *)

val of_value : 'a -> string
(** [of_value v] is the hex MD5 of [v]'s marshalled bytes with
    [No_sharing], so physical sharing (a subvalue built once and used
    twice) does not change the key. [v] must be acyclic and hold no
    closures. *)
