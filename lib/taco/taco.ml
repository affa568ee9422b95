(* taco_lite: a miniature Tensor Algebra Compiler in the spirit of Taco
   (Kjolstad et al., OOPSLA'17) as the paper uses it (Sec. IV-D): it accepts
   a tensor index-notation expression, plus per-tensor format annotations,
   and emits serial minic code that Phloem then pipelines.

   Supported class: single-statement assignments whose right-hand side is a
   sum of terms, each term a product of tensor accesses/scalars, with at
   most one sparse (CSR) factor per term and at most one contraction index.
   This covers the paper's four Taco benchmarks:
     SpMV     y(i) = A(i,j) * x(j)
     Residual y(i) = b(i) - A(i,j) * x(j)
     MTMul    y(i) = alpha * A(j,i) * x(j) + beta * z(i)   (transposed A)
     SDDMM    A(i,j) = B(i,j) * C(i,k) * D(k,j)
*)

type format =
  | Csr (* sparse 2-D, row-major compressed *)
  | Dense_vector
  | Dense_matrix of int * int (* rows, cols; flattened row-major *)
  | Scalar

type access = { tensor : string; indices : string list }

type factor =
  | Faccess of access
  | Fconst of float

type term = { sign : float; factors : factor list }

type assignment = { lhs : access; terms : term list }

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* --- parser for index notation --- *)

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      while
        !i < n
        &&
        let c = src.[!i] in
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
      do
        incr i
      done;
      toks := `Ident (String.sub src start (!i - start)) :: !toks
    end
    else if (c >= '0' && c <= '9') || c = '.' then begin
      let start = !i in
      while
        !i < n
        &&
        let c = src.[!i] in
        (c >= '0' && c <= '9') || c = '.'
      do
        incr i
      done;
      toks := `Num (float_of_string (String.sub src start (!i - start))) :: !toks
    end
    else begin
      (match c with
      | '(' -> toks := `Lpar :: !toks
      | ')' -> toks := `Rpar :: !toks
      | ',' -> toks := `Comma :: !toks
      | '=' -> toks := `Eq :: !toks
      | '+' -> toks := `Plus :: !toks
      | '-' -> toks := `Minus :: !toks
      | '*' -> toks := `Star :: !toks
      | _ -> fail "unexpected character %c" c);
      incr i
    end
  done;
  List.rev !toks

let parse (src : string) : assignment =
  let toks = ref (tokenize src) in
  let peek () = match !toks with t :: _ -> Some t | [] -> None in
  let advance () = match !toks with _ :: rest -> toks := rest | [] -> () in
  let expect t =
    if peek () = Some t then advance () else fail "parse error in %s" src
  in
  let parse_access name =
    if peek () = Some `Lpar then begin
      advance ();
      let idxs = ref [] in
      let rec loop () =
        match peek () with
        | Some (`Ident i) ->
          advance ();
          idxs := i :: !idxs;
          if peek () = Some `Comma then begin
            advance ();
            loop ()
          end
        | _ -> fail "expected index variable"
      in
      loop ();
      expect `Rpar;
      { tensor = name; indices = List.rev !idxs }
    end
    else { tensor = name; indices = [] }
  in
  let parse_factor () =
    match peek () with
    | Some (`Ident name) ->
      advance ();
      Faccess (parse_access name)
    | Some (`Num x) ->
      advance ();
      Fconst x
    | _ -> fail "expected a factor"
  in
  let parse_term sign =
    let factors = ref [ parse_factor () ] in
    while peek () = Some `Star do
      advance ();
      factors := parse_factor () :: !factors
    done;
    { sign; factors = List.rev !factors }
  in
  let lhs =
    match peek () with
    | Some (`Ident name) ->
      advance ();
      parse_access name
    | _ -> fail "expected left-hand side"
  in
  expect `Eq;
  let terms = ref [] in
  let rec loop sign =
    terms := parse_term sign :: !terms;
    match peek () with
    | Some `Plus ->
      advance ();
      loop 1.0
    | Some `Minus ->
      advance ();
      loop (-1.0)
    | None -> ()
    | _ -> fail "trailing tokens"
  in
  let first_sign =
    if peek () = Some `Minus then begin
      advance ();
      -1.0
    end
    else 1.0
  in
  loop first_sign;
  { lhs; terms = List.rev !terms }

(* --- code generation --- *)

type plan = {
  pl_source : string; (* minic source with #pragma phloem *)
  pl_kernel : string; (* kernel function name *)
}

(* Emit the value expression of one factor at loop position, given:
   [row] the outer index var, [je] the sparse column variable (if any),
   [k] an inner dense contraction variable (if any). *)
let factor_code formats ~subst f =
  match f with
  | Fconst x -> Printf.sprintf "%g" x
  | Faccess a -> (
    match List.assoc a.tensor formats with
    | Scalar -> a.tensor
    | Dense_vector -> (
      match a.indices with
      | [ i ] -> Printf.sprintf "%s[%s]" a.tensor (subst i)
      | _ -> fail "vector %s must have one index" a.tensor)
    | Dense_matrix (_, cols) -> (
      match a.indices with
      | [ i; j ] ->
        Printf.sprintf "%s[%s * %d + %s]" a.tensor (subst i) cols (subst j)
      | _ -> fail "matrix %s must have two indices" a.tensor)
    | Csr -> fail "sparse factor %s handled separately" a.tensor)

(* Generate code for the supported class. *)
let codegen ?(kernel = "taco_kernel") (formats : (string * format) list)
    (asg : assignment) : plan =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let lhs_fmt = List.assoc asg.lhs.tensor formats in
  (* declare parameters: for each tensor, its arrays *)
  let params = ref [] in
  let seen = ref [] in
  let declare name f =
    if not (List.mem name !seen) then begin
      seen := name :: !seen;
      match f with
      | Csr ->
        params :=
          !params
          @ [
              Printf.sprintf "int *restrict %s_rp" name;
              Printf.sprintf "int *restrict %s_col" name;
              Printf.sprintf "float *restrict %s_vals" name;
            ]
      | Dense_vector -> params := !params @ [ Printf.sprintf "float *restrict %s" name ]
      | Dense_matrix _ -> params := !params @ [ Printf.sprintf "float *restrict %s" name ]
      | Scalar -> params := !params @ [ Printf.sprintf "float %s" name ]
    end
  in
  (* the sparse output's pattern arrays come from the sampling factor, not
     as separate parameters; only its values array (name_out) is passed *)
  List.iter
    (fun (n, f) -> if not (lhs_fmt = Csr && n = asg.lhs.tensor) then declare n f)
    formats;
  out "#pragma phloem\nvoid %s(int n_rows, %s) {\n" kernel (String.concat ", " !params);
  (match (lhs_fmt, asg.lhs.indices) with
  | Dense_vector, [ row ] ->
    (* y(i) = sum of terms *)
    out "for (int %s = 0; %s < n_rows; %s++) {\n" row row row;
    out "float total = 0.0;\n";
    List.iter
      (fun t ->
        let sparse =
          List.find_map
            (fun f ->
              match f with
              | Faccess a when List.assoc a.tensor formats = Csr -> Some a
              | _ -> None)
            t.factors
        in
        let sgn_op = if t.sign < 0.0 then "-" else "+" in
        match sparse with
        | None ->
          (* pointwise term *)
          let subst i = if i = row then row else fail "free index %s" i in
          let code =
            List.map (factor_code formats ~subst) t.factors |> String.concat " * "
          in
          out "total = total %s %s;\n" sgn_op code
        | Some a ->
          (* contraction over the sparse factor's other index; iterate the
             sparse rows of the index that matches the output row. For
             A(i,j) with output i we scan row i; for A(j,i) (MTMul) the
             caller must pass A already transposed so the row index is
             first — taco_lite, like Taco, picks the traversal-friendly
             layout. *)
          let contraction =
            match a.indices with
            | [ r; c ] when r = row -> c
            | [ c; r ] when r = row -> c (* pre-transposed binding *)
            | _ -> fail "sparse access %s incompatible with output" a.tensor
          in
          out "float acc = 0.0;\n";
          out "int e_start = %s_rp[%s];\nint e_end = %s_rp[%s + 1];\n" a.tensor row
            a.tensor row;
          out "for (int e = e_start; e < e_end; e++) {\n";
          out "int %s = %s_col[e];\n" contraction a.tensor;
          let subst i = if i = row then row else i in
          let is_scalar f =
            match f with
            | Fconst _ -> true
            | Faccess b -> List.assoc b.tensor formats = Scalar
          in
          let others =
            List.filter_map
              (fun f ->
                match f with
                | Faccess b when b.tensor = a.tensor && b.indices = a.indices -> None
                | f when is_scalar f -> None
                | f -> Some (factor_code formats ~subst f))
              t.factors
          in
          let scalars =
            List.filter_map
              (fun f -> if is_scalar f then Some (factor_code formats ~subst f) else None)
              t.factors
          in
          let code = String.concat " * " ((a.tensor ^ "_vals[e]") :: others) in
          out "acc = acc + %s;\n}\n" code;
          let acc_expr = String.concat " * " (scalars @ [ "acc" ]) in
          out "total = total %s %s;\n" sgn_op acc_expr)
      asg.terms;
    out "%s[%s] = total;\n}\n" asg.lhs.tensor row
  | Csr, [ row; colv ] ->
    (* sampled output: iterate the lhs sparsity (SDDMM). Exactly one term,
       containing the lhs-sparsity factor B(i,j) and dense factors. *)
    (match asg.terms with
    | [ t ] ->
      let sampler =
        List.find_map
          (fun f ->
            match f with
            | Faccess a
              when List.assoc a.tensor formats = Csr && a.indices = [ row; colv ] ->
              Some a
            | _ -> None)
          t.factors
      in
      (match sampler with
      | None -> fail "sparse output needs a sampling sparse factor"
      | Some b ->
        (* find the dense contraction index *)
        let kvar =
          List.concat_map
            (fun f -> match f with Faccess a -> a.indices | Fconst _ -> [])
            t.factors
          |> List.filter (fun i -> i <> row && i <> colv)
          |> fun l -> match l with [] -> fail "sddmm needs a contraction" | k :: _ -> k
        in
        let kdim =
          List.find_map
            (fun f ->
              match f with
              | Faccess a when List.assoc a.tensor formats <> Csr -> (
                match (List.assoc a.tensor formats, a.indices) with
                | Dense_matrix (_, cols), [ _; j ] when j = kvar -> Some cols
                | _ -> None)
              | _ -> None)
            t.factors
        in
        let kdim = match kdim with Some k -> k | None -> fail "cannot size contraction" in
        out "for (int %s = 0; %s < n_rows; %s++) {\n" row row row;
        out "int e_start = %s_rp[%s];\nint e_end = %s_rp[%s + 1];\n" b.tensor row
          b.tensor row;
        out "for (int e = e_start; e < e_end; e++) {\n";
        out "int %s = %s_col[e];\n" colv b.tensor;
        out "float acc = 0.0;\n";
        out "for (int %s = 0; %s < %d; %s++) {\n" kvar kvar kdim kvar;
        let subst i = i in
        let others =
          List.filter_map
            (fun f ->
              match f with
              | Faccess a when a.tensor = b.tensor && a.indices = b.indices -> None
              | f -> Some (factor_code formats ~subst f))
            t.factors
        in
        out "acc = acc + %s;\n}\n" (String.concat " * " others);
        out "%s_out[e] = %s_vals[e] * acc;\n}\n}\n" asg.lhs.tensor b.tensor)
    | _ -> fail "sparse output supports a single term")
  | _ -> fail "unsupported output format");
  out "}\n";
  (* sparse outputs need the extra _out array parameter *)
  let src = Buffer.contents buf in
  let src =
    if lhs_fmt = Csr then
      (* add the output values parameter *)
      Str.global_replace
        (Str.regexp_string (Printf.sprintf "void %s(int n_rows, " kernel))
        (Printf.sprintf "void %s(int n_rows, float *restrict %s_out, " kernel
           asg.lhs.tensor)
        src
    else src
  in
  { pl_source = src; pl_kernel = kernel }

let compile ?kernel formats src = codegen ?kernel formats (parse src)
