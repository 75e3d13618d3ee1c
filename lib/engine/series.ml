type curve = { name : string; mutable pts : (float * float) list (* reverse order *) }

let curve name = { name; pts = [] }
let add_point c ~x ~y = c.pts <- (x, y) :: c.pts
let curve_name c = c.name
let points c = List.rev c.pts

let y_at ?(eps = 1e-9) c x =
  (* Abscissae are often computed (e.g. [i * step]), so exact float equality
     misses points; match within a tolerance scaled to the magnitude of [x]
     and return the closest match. *)
  let tol = eps *. Float.max 1.0 (Float.abs x) in
  List.fold_left
    (fun best (px, py) ->
      let d = Float.abs (px -. x) in
      if d <= tol then
        match best with
        | Some (bd, _) when bd <= d -> best
        | _ -> Some (d, py)
      else best)
    None (points c)
  |> Option.map snd

type figure = { title : string; x_label : string; y_label : string; curves : curve list }

let figure ~title ~x_label ~y_label curves = { title; x_label; y_label; curves }

let xs_of f =
  let xs =
    List.concat_map (fun c -> List.map fst (points c)) f.curves
    |> List.sort_uniq compare
  in
  xs

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3f" v

let pad width s =
  let n = String.length s in
  if n >= width then s else String.make (width - n) ' ' ^ s

let pp_figure ppf f =
  let xs = xs_of f in
  let headers = f.x_label :: List.map curve_name f.curves in
  let rows =
    List.map
      (fun x ->
        fmt_num x
        :: List.map
             (fun c -> match y_at c x with Some y -> fmt_num y | None -> "-")
             f.curves)
      xs
  in
  let columns = List.length headers in
  let width i =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row i)))
      (String.length (List.nth headers i))
      rows
  in
  let widths = List.init columns width in
  let render_row row =
    String.concat "  " (List.map2 pad widths row)
  in
  Format.fprintf ppf "== %s ==@." f.title;
  Format.fprintf ppf "(y: %s)@." f.y_label;
  Format.fprintf ppf "%s@." (render_row headers);
  List.iter (fun row -> Format.fprintf ppf "%s@." (render_row row)) rows

let pp_figure_chart ppf f =
  let xs = xs_of f in
  let peak =
    List.fold_left
      (fun acc c -> List.fold_left (fun acc (_, y) -> Float.max acc y) acc (points c))
      1e-9 f.curves
  in
  let bar_width = 46 in
  Format.fprintf ppf "== %s ==@." f.title;
  Format.fprintf ppf "(y: %s; full bar = %s)@." f.y_label (fmt_num peak);
  List.iter
    (fun c ->
      Format.fprintf ppf "-- %s --@." (curve_name c);
      List.iter
        (fun x ->
          match y_at c x with
          | None -> ()
          | Some y ->
              let n =
                int_of_float (Float.round (float_of_int bar_width *. y /. peak))
              in
              let n = if y > 0. && n = 0 then 1 else n in
              Format.fprintf ppf "%10s |%s %s@." (fmt_num x) (String.make n '#') (fmt_num y))
        xs)
    f.curves

let figure_to_csv f =
  let xs = xs_of f in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (String.concat "," (f.x_label :: List.map curve_name f.curves));
  Buffer.add_char buf '\n';
  List.iter
    (fun x ->
      let cells =
        fmt_num x
        :: List.map (fun c -> match y_at c x with Some y -> fmt_num y | None -> "") f.curves
      in
      Buffer.add_string buf (String.concat "," cells);
      Buffer.add_char buf '\n')
    xs;
  Buffer.contents buf

type table = { t_title : string; columns : string list; mutable rows : string list list }

let table ~title ~columns = { t_title = title; columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Series.add_row: row width does not match columns";
  t.rows <- t.rows @ [ row ]

let table_rows t = t.rows

let pp_table ppf t =
  let all = t.columns :: t.rows in
  let columns = List.length t.columns in
  let width i =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row i))) 0 all
  in
  let widths = List.init columns width in
  Format.fprintf ppf "== %s ==@." t.t_title;
  List.iter
    (fun row -> Format.fprintf ppf "%s@." (String.concat "  " (List.map2 pad widths row)))
    all

let table_to_csv t =
  let buf = Buffer.create 256 in
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," row);
      Buffer.add_char buf '\n')
    (t.columns :: t.rows);
  Buffer.contents buf
